//! The names the broker shares instead of copying: one `Arc<str>` per
//! policy and backend name for the whole broker, and [`label`] for the
//! per-site, per-agent and per-console labels its owners make on first use
//! (DESIGN §7o, "Names are shared").

use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;

use cg_site::BackendKind;

use super::Inner;
use crate::policy::PolicyKind;

impl Inner {
    /// The site's own name.
    pub(super) fn site_name(&self, site_index: usize) -> Arc<str> {
        Arc::clone(self.sites[site_index].site.name_arc())
    }
}

/// The broker's constant trace names, made once per broker and shared by
/// every event that carries one.
pub(super) struct Names {
    /// [`PolicyKind::name`] of each policy, in [`PolicyKind::ALL`] order.
    policies: [Arc<str>; PolicyKind::ALL.len()],
    /// [`BackendKind::as_str`] of the simulated and the process backend.
    backends: [Arc<str>; 2],
}

impl Names {
    pub(super) fn new() -> Names {
        Names {
            policies: PolicyKind::ALL.map(|kind| Arc::from(kind.name())),
            backends: [BackendKind::SimLrms, BackendKind::Process].map(|k| Arc::from(k.as_str())),
        }
    }

    pub(super) fn policy(&self, kind: PolicyKind) -> Arc<str> {
        let at = PolicyKind::ALL.iter().position(|k| *k == kind);
        Arc::clone(&self.policies[at.expect("every kind is registered")])
    }

    pub(super) fn backend(&self, kind: BackendKind) -> Arc<str> {
        Arc::clone(match kind {
            BackendKind::SimLrms => &self.backends[0],
            BackendKind::Process => &self.backends[1],
        })
    }
}

/// Labels up to this many bytes are formatted on the stack.
const STACK_LABEL: usize = 64;

/// `{prefix}{id}` as one allocation — the `Arc` itself — where `format!`
/// and `Arc::from` would make two.
pub(super) fn label(prefix: &str, id: impl fmt::Display) -> Arc<str> {
    let mut buf = [0u8; STACK_LABEL];
    let mut stack = io::Cursor::new(&mut buf[..]);
    if write!(stack, "{prefix}{id}").is_ok() {
        let len = usize::try_from(stack.position()).expect("at most STACK_LABEL");
        Arc::from(std::str::from_utf8(&buf[..len]).expect("written as str"))
    } else {
        Arc::from(format!("{prefix}{id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_label_is_what_format_makes_whatever_its_length() {
        let (fits, overflows) = ("x".repeat(STACK_LABEL - 5), "y".repeat(STACK_LABEL - 4));
        for name in ["cesga", fits.as_str(), overflows.as_str()] {
            assert_eq!(*label("site:", name), *format!("site:{name}"));
        }
        assert_eq!(*label("agent-", 42), *"agent-42");
    }
}
