#include "fuzz/engine.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "check/coverage.h"
#include "common/flatjson.h"
#include "common/narrow.h"
#include "check/trace.h"
#include "harness/campaign.h"
#include "harness/gate.h"
#include "harness/scenariofile.h"

namespace lifeguard::fuzz {

namespace {

/// Folded into the candidate-derivation chain so fuzz candidate seeds can
/// never collide with the trial seeds of an ordinary campaign ("fuzz").
constexpr std::uint64_t kFuzzSalt = 0x66757a7aULL;

std::string hex8(std::uint64_t h) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08llx",
                static_cast<unsigned long long>((h ^ (h >> 32)) &
                                                0xffffffffULL));
  return buf;
}

std::string zero_pad4(std::size_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04zu", n);
  return buf;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

/// FNV-1a over strings and words — the reproducer-name hash. Depends only
/// on the minimal scenario's content, so the filename is jobs-invariant.
struct ContentHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void feed(std::string_view s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
  void feed(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

std::vector<fault::FaultKind> entry_kinds_of(const fault::Timeline& tl) {
  std::vector<fault::FaultKind> kinds;
  kinds.reserve(tl.size());
  for (const fault::TimelineEntry& e : tl.entries()) {
    kinds.push_back(e.fault.kind);
  }
  return kinds;
}

}  // namespace

// ---------------------------------------------------------------------------
// CoverageMap

std::size_t CoverageMap::merge(const std::vector<std::uint64_t>& keys) {
  std::size_t fresh = 0;
  for (std::uint64_t k : keys) {
    if (seen_.insert(k).second) ++fresh;
  }
  return fresh;
}

std::uint64_t CoverageMap::digest() const {
  std::vector<std::uint64_t> keys(seen_.begin(), seen_.end());
  std::sort(keys.begin(), keys.end());
  return check::CoverageCollector::digest_of(keys);
}

// ---------------------------------------------------------------------------
// Engine

Engine::Engine(harness::Scenario base, EngineOptions opts)
    : base_(std::move(base)), opts_(std::move(opts)) {}

FuzzReport Engine::run() {
  harness::Scenario base = base_;
  base.timeline = fault::Timeline{};
  // Force-enable the full suite (empty invariant list = every built-in);
  // tolerance knobs the caller tuned (cap, slack, settle) are respected.
  base.checks.enabled = true;

  // Keep candidate spans inside the window that leaves the convergence
  // invariant a settle-length disturbance-free tail to assert over.
  MutatorOptions mopts = opts_.mutator;
  {
    const Duration cap =
        base.run_length - base.checks.convergence_settle - sec(5);
    if (cap >= sec(5) && mopts.horizon > cap) mopts.horizon = cap;
  }
  const Mutator mutator(base.cluster_size, mopts);

  CoverageMap coverage;
  std::vector<fault::Timeline> corpus;
  std::vector<std::uint64_t> corpus_seeds;
  std::vector<std::size_t> corpus_new_keys;
  std::vector<std::uint64_t> corpus_digests;
  std::set<std::vector<std::string>> seen_signatures;
  std::vector<Finding> findings;

  int done = 0;
  int gen = 0;
  while (done < opts_.trials) {
    const int g_size = std::min(opts_.generation_size, opts_.trials - done);

    // Derive the whole generation's candidates before anything runs: each
    // is a pure function of (seed, generation, index, corpus-at-barrier).
    std::vector<fault::Timeline> cands;
    cands.reserve(static_cast<std::size_t>(g_size));
    for (int i = 0; i < g_size; ++i) {
      Rng rng(harness::trial_seed(
          opts_.seed, {kFuzzSalt, static_cast<std::uint64_t>(gen)}, i));
      if (corpus.empty() || rng.chance(0.2)) {
        cands.push_back(mutator.random_timeline(rng));
      } else {
        const fault::Timeline& parent =
            corpus[static_cast<std::size_t>(rng.uniform(corpus.size()))];
        const fault::Timeline& other =
            corpus[static_cast<std::size_t>(rng.uniform(corpus.size()))];
        cands.push_back(mutator.mutate(parent, other, rng));
      }
    }

    // One pre-allocated collector per trial index: workers touch disjoint
    // slots, the barrier fold below reads them in index order.
    std::vector<check::CoverageCollector> collectors;
    collectors.reserve(cands.size());
    for (const fault::Timeline& tl : cands) {
      collectors.emplace_back(entry_kinds_of(tl));
    }

    harness::Campaign camp;
    camp.name = "fuzz";
    camp.base = base;
    harness::Axis axis;
    axis.name = "candidate";
    for (int i = 0; i < g_size; ++i) {
      const fault::Timeline tl = cands[static_cast<std::size_t>(i)];
      axis.points.push_back(
          {"g" + std::to_string(gen) + "c" + std::to_string(i),
           (static_cast<std::uint64_t>(gen) << 20) |
               static_cast<std::uint64_t>(i),
           [tl](harness::Scenario& s) { s.timeline = tl; }});
    }
    camp.axes.push_back(std::move(axis));
    camp.repetitions = 1;
    camp.base_seed = opts_.seed;
    camp.jobs = opts_.jobs;
    camp.trial_sinks =
        [&collectors](const harness::TrialResult& t) {
          return std::vector<check::TraceSink*>{
              &collectors[static_cast<std::size_t>(t.trial_index)]};
        };
    const harness::CampaignResult result = harness::run(camp);

    // Generation barrier: fold coverage, corpus and findings in trial-index
    // order — the step that makes evolution jobs-invariant.
    for (int i = 0; i < g_size; ++i) {
      const harness::TrialResult& t =
          result.trials[static_cast<std::size_t>(i)];
      const std::vector<std::uint64_t> keys =
          collectors[static_cast<std::size_t>(i)].keys();
      const std::size_t fresh = coverage.merge(keys);
      if (fresh > 0) {
        corpus.push_back(cands[static_cast<std::size_t>(i)]);
        corpus_seeds.push_back(t.seed);
        corpus_new_keys.push_back(fresh);
        corpus_digests.push_back(check::CoverageCollector::digest_of(keys));
      }
      if (t.result.checks.total_violations > 0) {
        std::vector<std::string> sig =
            t.result.checks.violated_invariants();
        std::sort(sig.begin(), sig.end());
        if (seen_signatures.insert(sig).second) {
          harness::Scenario violating = base;
          violating.timeline = cands[static_cast<std::size_t>(i)];
          violating.seed = t.seed;

          Finding f;
          f.invariants = sig;
          f.trial_index = done + i;
          check::ShrinkOptions sopts;
          sopts.jobs = opts_.jobs;
          f.shrink = check::shrink(violating, sopts);

          harness::Scenario minimal = f.shrink.minimal;
          ContentHash hash;
          for (const std::string& spec :
               check::timeline_specs(minimal.timeline)) {
            hash.feed(spec);
          }
          hash.feed(minimal.seed);
          hash.feed(minimal.membership);
          for (const std::string& inv : sig) hash.feed(inv);
          minimal.name = "fuzz-" + sig.front() + "-" + hex8(hash.h);
          minimal.summary =
              "fuzzer reproducer: violates " + join(sig, ", ") +
              " (trial " + std::to_string(f.trial_index) + ", shrunk " +
              std::to_string(violating.timeline.size()) + " -> " +
              std::to_string(minimal.timeline.size()) +
              " entries)";
          f.reproducer = std::move(minimal);
          findings.push_back(std::move(f));
        }
      }
    }
    done += g_size;
    ++gen;
  }

  FuzzReport report;
  report.trials = done;
  report.generations = gen;
  report.coverage_keys = coverage.size();
  report.coverage_digest = coverage.digest();
  report.corpus_size = corpus.size();
  report.findings = std::move(findings);

  if (!opts_.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts_.out_dir, ec);
    auto save_scenario = [&](const harness::Scenario& s) -> std::string {
      const std::string fname = harness::ScenarioFile::filename(s);
      const std::string path = opts_.out_dir + "/" + fname;
      std::string error;
      if (!harness::ScenarioFile::save(s, path, error)) {
        throw std::runtime_error("fuzz: cannot write " + path + ": " +
                                 error);
      }
      return fname;
    };

    harness::BaselineSet baselines;
    for (Finding& f : report.findings) {
      const std::string fname = save_scenario(f.reproducer);
      f.file = opts_.out_dir + "/" + fname;
      baselines.entries.push_back(
          harness::record_baseline(f.reproducer, f.shrink.minimal_result));
    }
    if (!baselines.entries.empty()) {
      std::string error;
      if (!harness::save_baselines_file(
              baselines, opts_.out_dir + "/baselines.json", error)) {
        throw std::runtime_error("fuzz: " + error);
      }
    }

    if (opts_.write_corpus) {
      CoverageReport cov;
      cov.fuzz_seed = opts_.seed;
      cov.trials = report.trials;
      cov.generations = report.generations;
      cov.cluster_size = base.cluster_size;
      cov.coverage_keys = report.coverage_keys;
      cov.coverage_digest = report.coverage_digest;
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        harness::Scenario c = base;
        c.timeline = corpus[i];
        c.seed = corpus_seeds[i];
        c.name = "fuzz-corpus-" + zero_pad4(i);
        c.summary = "fuzz corpus: +" + std::to_string(corpus_new_keys[i]) +
                    " coverage keys when discovered";
        const std::string fname = save_scenario(c);
        report.corpus_files.push_back(fname);
        cov.corpus.push_back(
            {fname, corpus_seeds[i], corpus_new_keys[i], corpus_digests[i]});
      }
      for (const Finding& f : report.findings) {
        cov.findings.push_back(
            harness::ScenarioFile::filename(f.reproducer));
      }
      report.report_file = opts_.out_dir + "/coverage.json";
      std::string error;
      if (!save_coverage_report(cov, report.report_file, error)) {
        throw std::runtime_error("fuzz: " + error);
      }
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Coverage report codec

std::string coverage_report_to_json(const CoverageReport& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"type\": \"lifeguard-fuzz-coverage\",\n";
  os << "  \"version\": " << CoverageReport::kVersion << ",\n";
  os << "  \"fuzz_seed\": \"" << r.fuzz_seed << "\",\n";
  os << "  \"trials\": " << r.trials << ",\n";
  os << "  \"generations\": " << r.generations << ",\n";
  os << "  \"cluster_size\": " << r.cluster_size << ",\n";
  os << "  \"coverage_keys\": " << r.coverage_keys << ",\n";
  os << "  \"coverage_digest\": \"" << r.coverage_digest << "\",\n";
  os << "  \"corpus\": [";
  for (std::size_t i = 0; i < r.corpus.size(); ++i) {
    const CoverageReport::CorpusEntry& e = r.corpus[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << e.file << "\", \"seed\": \"" << e.seed
       << "\", \"new_keys\": " << e.new_keys << ", \"digest\": \""
       << e.digest << "\"}";
  }
  os << (r.corpus.empty() ? "],\n" : "\n  ],\n");
  os << "  \"findings\": [";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    os << "    \"" << r.findings[i] << "\"";
  }
  os << (r.findings.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

std::optional<CoverageReport> coverage_report_from_json(
    const std::string& text, std::string& error) {
  namespace fj = flatjson;
  fj::Value doc;
  if (!fj::parse(text, doc, error)) return std::nullopt;

  static const std::set<std::string> kKnown = {
      "type",          "version",       "fuzz_seed",
      "trials",        "generations",   "cluster_size",
      "coverage_keys", "coverage_digest", "corpus",
      "findings"};
  for (const auto& [key, value] : doc.members) {
    if (kKnown.find(key) == kKnown.end()) {
      error = "unknown key '" + key + "' in coverage report";
      return std::nullopt;
    }
  }

  CoverageReport r;
  std::string type;
  std::int64_t version = 0;
  if (!fj::get_str(doc, "type", type, error)) return std::nullopt;
  if (type != "lifeguard-fuzz-coverage") {
    error = "not a coverage report (type '" + type + "')";
    return std::nullopt;
  }
  if (!fj::get_i64(doc, "version", version, error)) return std::nullopt;
  if (version != CoverageReport::kVersion) {
    error = "unsupported coverage report version " + std::to_string(version);
    return std::nullopt;
  }
  std::int64_t trials = 0, generations = 0, cluster = 0, keys = 0;
  if (!fj::get_u64(doc, "fuzz_seed", r.fuzz_seed, error) ||
      !fj::get_i64(doc, "trials", trials, error) ||
      !fj::get_i64(doc, "generations", generations, error) ||
      !fj::get_i64(doc, "cluster_size", cluster, error) ||
      !fj::get_i64(doc, "coverage_keys", keys, error) ||
      !fj::get_u64(doc, "coverage_digest", r.coverage_digest, error)) {
    return std::nullopt;
  }
  if (!narrow(trials, "trials", r.trials, error) ||
      !narrow(generations, "generations", r.generations, error) ||
      !narrow(cluster, "cluster_size", r.cluster_size, error) ||
      !narrow(keys, "coverage_keys", r.coverage_keys, error)) {
    return std::nullopt;
  }

  const fj::Value* corpus = doc.find("corpus");
  if (corpus == nullptr || corpus->kind != fj::Value::Kind::kArray) {
    error = "coverage report needs a 'corpus' array";
    return std::nullopt;
  }
  for (const fj::Value& v : corpus->array) {
    if (v.kind != fj::Value::Kind::kObject) {
      error = "corpus entries must be objects";
      return std::nullopt;
    }
    CoverageReport::CorpusEntry e;
    std::int64_t new_keys = 0;
    if (!fj::get_str(v, "file", e.file, error) ||
        !fj::get_u64(v, "seed", e.seed, error) ||
        !fj::get_i64(v, "new_keys", new_keys, error) ||
        !fj::get_u64(v, "digest", e.digest, error) ||
        !narrow(new_keys, "new_keys", e.new_keys, error)) {
      return std::nullopt;
    }
    r.corpus.push_back(std::move(e));
  }
  if (!fj::get_string_array(doc, "findings", r.findings, error)) {
    return std::nullopt;
  }
  return r;
}

bool save_coverage_report(const CoverageReport& r, const std::string& path,
                          std::string& error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    error = "cannot open " + path + " for writing";
    return false;
  }
  out << coverage_report_to_json(r);
  out.flush();
  if (!out) {
    error = "write to " + path + " failed";
    return false;
  }
  return true;
}

std::optional<CoverageReport> load_coverage_report(const std::string& path,
                                                   std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto r = coverage_report_from_json(buf.str(), error);
  if (!r) error = path + ": " + error;
  return r;
}

}  // namespace lifeguard::fuzz
