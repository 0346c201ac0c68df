//! No-op `Serialize`/`Deserialize` derives for the offline serde shim.
//!
//! No first-party user: only `compat/serde` depends on it, and it goes with
//! that crate. Deriving nothing was sufficient (there is no serializer in
//! the dependency tree), because the shim traits in `serde` carry blanket
//! impls.

use proc_macro::TokenStream;

/// Accepts and discards a `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts and discards a `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_item: TokenStream) -> TokenStream {
    TokenStream::new()
}
