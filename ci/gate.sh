#!/usr/bin/env bash
# ci/gate.sh CMD ARGS… — run one `--check` gate of the CI workflow.
#
# Every exit status passes through unchanged except 77, the gates' explicit
# "skipped: the runner is too small to judge" status. A skip does not fail
# the job, but it is not a pass either: it becomes a warning annotation and
# a `skipped gate:` line in the job summary, so a green run lists what it
# did not run.
set -u

"$@"
code=$?
if [ "$code" -eq 77 ]; then
  echo "::warning::skipped gate (exit 77): $*"
  echo "skipped gate: $*" >> "${GITHUB_STEP_SUMMARY:-/dev/null}"
  exit 0
fi
exit "$code"
