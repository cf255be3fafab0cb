#include "check/shrink.h"

#include <algorithm>
#include <utility>

#include "harness/campaign.h"

namespace lifeguard::check {

namespace {

using harness::RunResult;
using harness::Scenario;

/// One proposed reduction: a mutated scenario plus a human-readable label.
struct Candidate {
  Scenario scenario;
  std::string label;
};

fault::Timeline without_entry(const fault::Timeline& tl, std::size_t skip) {
  fault::Timeline out;
  for (std::size_t i = 0; i < tl.size(); ++i) {
    if (i != skip) out.add(tl.entries()[i]);
  }
  return out;
}

/// Halve a victim selector's resolved size; false when already minimal.
bool halve_victims(fault::VictimSelector& v, int cluster_size) {
  const int n = v.resolved_count(cluster_size);
  if (n <= 1) return false;
  switch (v.mode) {
    case fault::VictimSelector::Mode::kUniform:
      v.count = n / 2;
      return true;
    case fault::VictimSelector::Mode::kExplicit:
      v.indices.resize(static_cast<std::size_t>(n / 2));
      return true;
    case fault::VictimSelector::Mode::kFraction:
      // Collapse to a concrete draw of half the size: simpler to read in a
      // reproducer than a fraction.
      v = fault::VictimSelector::uniform(n / 2);
      return true;
    case fault::VictimSelector::Mode::kIsland:
      v.count = n / 2;
      return true;
  }
  return false;
}

std::vector<Candidate> propose(const Scenario& current,
                               const ShrinkOptions& opts) {
  std::vector<Candidate> out;
  const fault::Timeline& tl = current.timeline;

  // 1. Drop whole entries — the biggest single reduction first.
  for (std::size_t i = 0; i < tl.size(); ++i) {
    Candidate c{current, "drop entry " + std::to_string(i) + " (" +
                             tl.entries()[i].describe() + ")"};
    c.scenario.timeline = without_entry(tl, i);
    out.push_back(std::move(c));
  }
  // 2. Halve victim sets.
  for (std::size_t i = 0; i < tl.size(); ++i) {
    Candidate c{current, "halve victims of entry " + std::to_string(i)};
    if (halve_victims(c.scenario.timeline.entry(i).victims,
                      current.cluster_size)) {
      out.push_back(std::move(c));
    }
  }
  // 3. Halve durations.
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const Duration d = tl.entries()[i].duration;
    if (d / 2 < opts.min_duration) continue;
    Candidate c{current, "halve duration of entry " + std::to_string(i)};
    c.scenario.timeline.entry(i).duration = d / 2;
    out.push_back(std::move(c));
  }
  // 4. Pull onsets toward zero.
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const Duration at = tl.entries()[i].at;
    if (at <= Duration{0}) continue;
    Candidate c{current, "halve onset of entry " + std::to_string(i)};
    c.scenario.timeline.entry(i).at =
        at < msec(10) ? Duration{0} : at / 2;
    out.push_back(std::move(c));
  }
  // 5. Shorten the observation window.
  if (current.run_length / 2 >= opts.min_run_length) {
    Candidate c{current, "halve run_length"};
    c.scenario.run_length = current.run_length / 2;
    out.push_back(std::move(c));
  }
  return out;
}

/// Does the run violate one of the target invariants?
bool violates_target(const RunResult& r,
                     const std::vector<std::string>& target) {
  for (const std::string& name : r.checks.violated_invariants()) {
    if (std::find(target.begin(), target.end(), name) != target.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

ShrinkResult shrink(const Scenario& s, const ShrinkOptions& opts) {
  ShrinkResult out;

  Scenario current = s;
  if (!current.checks.enabled) current.checks = Spec::all();

  // Baseline: the input must fail, and what it fails is the shrink target.
  RunResult baseline = harness::run(current);
  ++out.runs;
  out.target_invariants = baseline.checks.violated_invariants();
  if (out.target_invariants.empty()) {
    out.minimal = std::move(current);
    out.minimal_result = std::move(baseline);
    return out;
  }
  out.reproduced = true;
  out.minimal_result = std::move(baseline);

  const std::size_t width =
      static_cast<std::size_t>(harness::worker_count(opts.jobs));
  for (; out.rounds < opts.max_rounds; ) {
    const std::vector<Candidate> candidates = propose(current, opts);
    int accepted = -1;
    RunResult accepted_result;

    // Evaluate in index-ordered batches; accept the lowest-index violating
    // candidate. A batch runs concurrently, but acceptance depends only on
    // candidate order — the minimal scenario is jobs-invariant.
    for (std::size_t base = 0; base < candidates.size() && accepted < 0;
         base += width) {
      const std::size_t batch = std::min(candidates.size() - base, width);
      // A reduction that broke the shape keeps an empty result, which
      // violates nothing.
      std::vector<RunResult> results(batch);
      harness::parallel_for(batch, opts.jobs, [&](std::size_t offset) {
        const Scenario& cand = candidates[base + offset].scenario;
        if (cand.validate().empty()) results[offset] = harness::run(cand);
      });
      out.runs += static_cast<int>(batch);
      for (std::size_t off = 0; off < batch; ++off) {
        if (violates_target(results[off], out.target_invariants)) {
          accepted = static_cast<int>(base + off);
          accepted_result = std::move(results[off]);
          break;
        }
      }
    }

    if (accepted < 0) break;  // fixpoint: nothing smaller still fails
    current = candidates[static_cast<std::size_t>(accepted)].scenario;
    out.minimal_result = std::move(accepted_result);
    out.log.push_back(candidates[static_cast<std::size_t>(accepted)].label +
                      " -> " + std::to_string(current.timeline.size()) +
                      " entries");
    ++out.rounds;
  }

  out.minimal = std::move(current);
  return out;
}

}  // namespace lifeguard::check
