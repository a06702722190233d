#pragma once
// Seeded substreams and deterministic arrival-stream generation.
//
// Everything random in src/sim — the fault injector's Monte-Carlo trials
// and the online simulator's arrival traces — derives its randomness
// through one scheme: substream(seed, purpose, index) hands out a
// decorrelated common::Rng child keyed by a *purpose tag* and a stream
// index. Tagging keeps consumers independent (trial chunk 3 and arrival
// class 3 never collide on the same child stream) and makes every draw
// replayable from the one top-level seed: same seed => bit-identical
// trace, bit-identical trial outcomes, for any thread count.
//
// The arrival generator produces streams of jobs from task classes in
// the shape of a serving tier's SLA mix (three urgency tiers): each
// class has an inter-arrival law (Poisson or strictly periodic), a WCET,
// a relative deadline and an SLA tier. Realized work is drawn per job in
// [bcet_fraction * wcet, wcet] — the online policies only ever see the
// WCET bound; the realized value is what the clairvoyant oracle gets.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace easched::sim {

/// Purpose tag of a substream. Values are part of the determinism
/// contract: reordering them would silently reshuffle every seeded
/// result in the repo.
enum class StreamPurpose : std::uint64_t {
  kFaultTrial = 1,  ///< fault_sim Monte-Carlo trial chunks
  kArrival = 2,     ///< inter-arrival gaps of one task class
  kWork = 3,        ///< realized work draws of one task class
};

/// The shared substream derivation: a child Rng decorrelated from every
/// other (purpose, index) pair under the same seed.
common::Rng substream(std::uint64_t seed, StreamPurpose purpose, std::uint64_t index);

/// One class of recurring work in an arrival stream.
struct TaskClass {
  std::string name;
  /// Mean inter-arrival gap (exponential law), or the exact period when
  /// `periodic` is set.
  double mean_gap = 1.0;
  bool periodic = false;
  double wcet = 1.0;               ///< work bound at speed 1 (what policies see)
  double relative_deadline = 1.0;  ///< absolute deadline = release + this
  int sla = 0;                     ///< SLA tier, carried through to exports
  /// Realized work is uniform in [bcet_fraction * wcet, wcet]; 1.0 makes
  /// the class deterministic (work == wcet).
  double bcet_fraction = 0.5;
};

/// A serving tier's three SLA tiers as simulator task classes: mean gaps
/// of 2 / 5 / 11, with deadlines tight for SLA0 and loose for SLA2.
std::vector<TaskClass> default_task_classes(bool periodic = false);

/// One realized job of a trace.
struct SimJob {
  double release = 0.0;
  double wcet = 0.0;      ///< the online bound
  double work = 0.0;      ///< realized work, <= wcet
  double deadline = 0.0;  ///< absolute
  int task_class = 0;     ///< index into the generating class vector
  int sla = 0;
};

/// A realized arrival stream: jobs sorted by (release, class, per-class
/// sequence) — a total order, so equal release times tie-break
/// deterministically.
struct ArrivalTrace {
  std::vector<SimJob> jobs;
  double horizon = 0.0;  ///< release-time cutoff the trace was generated to
};

/// Generates the realized trace of `classes` up to `horizon`.
/// `stream_index` selects one of many independent streams under the same
/// seed (a corpus of streams shares one seed; per-class substreams are
/// keyed by stream * kStreamStride + class).
ArrivalTrace make_trace(const std::vector<TaskClass>& classes, double horizon,
                        std::uint64_t seed, std::uint64_t stream_index = 0);

}  // namespace easched::sim
