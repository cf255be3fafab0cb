// Scenarios as versioned data — the one codec for a scenario and its config.
//
// A scenario file is one pretty-printed JSON object carrying everything a
// harness::Scenario holds: cluster shape, seed, network model, protocol
// config (a Table I preset name plus explicit per-field overrides, so
// hand-tuned configs round-trip exactly), the fault timeline as `--fault`
// grammar strings (check::entry_spec), the membership backend spec, and the
// invariant-checking knobs. ScenarioRegistry entries exported with save()
// and committed under scenarios/*.json are the reviewable form of the
// catalog; scenario_runner --scenario-file runs them on either backend
// without recompiling, and the fuzzer can commit shrunk reproducers in the
// same format.
//
// Three documents share these keys, and read() is the one reader of all of
// them: the scenario file, a trace header (check/trace.h: the same keys on
// one line, with the name under `scenario` plus `spans`), and the config
// object alone — `config`, `alpha`, `beta`, `k` and `config_overrides`,
// which config_members() writes for both the trace header and the live
// worker's --config argument. The documents differ only in which keys they
// know and which they require: a scenario file requires `type`, `version`
// and `name` and defaults the rest to the Scenario{} value (a hand-authored
// file states only what it changes), a trace header requires nearly every
// key, and the config object requires none.
//
// Reading is strict where it protects the user: unknown keys, mistyped
// values, bad fault/membership specs, a `config` name that differs from the
// Table I row its overrides build, and out-of-range fields all fail fast
// with a message naming the offending key/value (the membership::parse_spec
// error discipline).
//
// Round-trip contract: the timeline is written losslessly in the `--fault`
// grammar and the config field for field, so for every registry scenario
// export -> load -> run reproduces the original run's metrics and trace
// digest bit-for-bit. tests/scenariofile pins this.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "harness/scenario.h"

namespace lifeguard::flatjson {
struct Value;
}

namespace lifeguard::harness {

struct ScenarioFile {
  /// The committed-file format version this build reads and writes.
  static constexpr int kVersion = 1;

  /// The documents that carry a whole scenario.
  enum class Document { kFile, kTraceHeader };

  /// Pretty-printed JSON document for `s` (assumed valid — export callers
  /// hold registry scenarios, which are validated on insertion).
  static std::string to_json(const Scenario& s);

  /// Parse + read one scenario file. Returns std::nullopt and sets `error`
  /// (one actionable message; multiple validation defects are joined with
  /// "; ") on any malformed, unknown or out-of-range input. The loaded
  /// scenario passes Scenario::validate().
  static std::optional<Scenario> from_json(const std::string& text,
                                           std::string& error);

  /// Read a parsed document of kind `d` into a validated Scenario. A trace
  /// header has no `summary` or `paper_ref`, so those stay empty.
  static std::optional<Scenario> read(const flatjson::Value& doc, Document d,
                                      std::string& error);

  /// The config keys as one line of JSON object members, without braces:
  /// `"config":"Lifeguard","alpha":5,"beta":6,"k":3`, then
  /// `,"config_overrides":{...}` when `c` differs from its Table I preset
  /// beyond alpha/beta/k. A trace header embeds these members; in braces
  /// they are the live worker's --config argument.
  static std::string config_members(const swim::Config& c);
  /// Read a config object (`{` config_members `}`, every key optional) into
  /// a validated Config.
  static std::optional<swim::Config> config_from_json(std::string_view text,
                                                      std::string& error);

  static bool save(const Scenario& s, const std::string& path,
                   std::string& error);
  static std::optional<Scenario> load(const std::string& path,
                                      std::string& error);

  /// The canonical committed filename for a scenario ("<name>.json").
  static std::string filename(const Scenario& s) { return s.name + ".json"; }
};

}  // namespace lifeguard::harness
