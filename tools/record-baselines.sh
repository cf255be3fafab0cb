#!/usr/bin/env bash
# Re-record the committed baseline metric bands.
#
#   tools/record-baselines.sh [BUILD_DIR] [--check]
#
# Re-runs the non-big registry tier to re-derive scenarios/baselines.json
# (band policy in docs/scenario-files.md), then strictly validates every
# file under scenarios/. The scenario files themselves are the registry and
# are edited by hand (scenarios/README.md). Run this after an intentional
# behavior change or scenario edit, review the diff, and commit it alongside
# the change. The bands are deterministic: on an unchanged tree this script
# is a no-op, which is exactly what --check (the CI freshness gate) asserts.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
runner="$build_dir/scenario_runner"
check_mode=0
if [[ "${2:-}" == "--check" || "${1:-}" == "--check" ]]; then
  check_mode=1
  [[ "${1:-}" == "--check" ]] && runner="$repo_root/build/scenario_runner"
fi

if [[ ! -x "$runner" ]]; then
  echo "error: $runner not built (cmake --build $build_dir --target scenario_runner)" >&2
  exit 2
fi

target="$repo_root/scenarios/baselines.json"
out="$target"
if [[ "$check_mode" == 1 ]]; then
  out="$(mktemp)"
  trap 'rm -f "$out"' EXIT
fi

"$runner" --record-baselines "$out"
"$runner" --validate-scenarios "$repo_root/scenarios"

if [[ "$check_mode" == 1 ]]; then
  if ! diff -u "$target" "$out"; then
    echo "" >&2
    echo "scenarios/baselines.json is stale — regenerate with tools/record-baselines.sh" >&2
    exit 1
  fi
  echo "scenarios/baselines.json is up to date"
else
  echo "wrote $target"
fi
