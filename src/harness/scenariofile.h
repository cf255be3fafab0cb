// Scenarios as versioned data — the JSON scenario-file codec.
//
// A scenario file is one pretty-printed JSON object carrying everything a
// harness::Scenario holds: cluster shape, seed, network model, protocol
// config (a Table I preset name plus explicit per-field overrides, so
// hand-tuned configs round-trip exactly), the fault timeline as `--fault`
// grammar strings (check::entry_spec — the same rendering the trace header
// uses), the membership backend spec, and the invariant-checking knobs.
// ScenarioRegistry entries exported with save() and committed under
// scenarios/*.json are the reviewable form of the catalog; scenario_runner
// --scenario-file runs them on either backend without recompiling, and the
// fuzzer can commit shrunk reproducers in the same format.
//
// Loading is strict where it protects the user and lenient where it helps
// them: unknown keys, malformed values, bad fault/membership specs and
// out-of-range fields all fail fast with a message naming the offending
// key/value (the membership::parse_spec error discipline), while every key
// except `type`, `version` and `name` is optional and defaults to the
// Scenario{} value — a hand-authored file states only what it changes.
//
// Round-trip contract: the timeline is written losslessly in the `--fault`
// grammar, so for every registry scenario export -> load -> run reproduces
// the original run's metrics and trace digest bit-for-bit.
// tests/scenariofile pins this.
#pragma once

#include <optional>
#include <string>

#include "harness/scenario.h"

namespace lifeguard::harness {

struct ScenarioFile {
  /// The committed-file format version this build reads and writes.
  static constexpr int kVersion = 1;

  /// Pretty-printed JSON document for `s` (assumed valid — export callers
  /// hold registry scenarios, which are validated on insertion).
  static std::string to_json(const Scenario& s);

  /// Parse + validate one scenario document. Returns std::nullopt and sets
  /// `error` (one actionable message; multiple validation defects are
  /// joined with "; ") on any malformed, unknown or out-of-range input.
  /// The loaded scenario carries the file's timeline in Scenario::timeline
  /// and passes Scenario::validate().
  static std::optional<Scenario> from_json(const std::string& text,
                                           std::string& error);

  static bool save(const Scenario& s, const std::string& path,
                   std::string& error);
  static std::optional<Scenario> load(const std::string& path,
                                      std::string& error);

  /// The canonical committed filename for a scenario ("<name>.json").
  static std::string filename(const Scenario& s) { return s.name + ".json"; }
};

}  // namespace lifeguard::harness
