#ifndef MINIRAID_NET_FAULTS_H_
#define MINIRAID_NET_FAULTS_H_

#include <functional>

#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "msg/message.h"

namespace miniraid {

/// Fault model shared by every transport (sim, inproc, TCP): the same
/// struct injects loss, duplication, and duplicate delay on all three
/// backends, so a lossy-network experiment configured once runs anywhere.
/// The paper assumes a reliable network ("no messages were lost"); these
/// knobs deliberately break that assumption to exercise the reliable
/// channel and the protocol's duplicate tolerance.
struct TransportFaults {
  /// Probability that a message is silently dropped.
  double drop_probability = 0.0;

  /// Probability that a message is delivered twice. The copy is scheduled
  /// `duplicate_delay` after the original (0 = immediately after), from an
  /// RNG stream separate from the latency jitter's, so enabling
  /// duplication never perturbs a same-seed run's original arrivals.
  double duplicate_probability = 0.0;
  Duration duplicate_delay = 0;

  /// Seed for the drop/duplicate decision streams (deterministic under the
  /// simulator; on the real backends determinism additionally depends on
  /// thread scheduling).
  uint64_t seed = 1;

  /// Optional targeted drop: return true to drop this message. Evaluated
  /// in addition to drop_probability (either one drops). Lets tests kill a
  /// specific protocol message while the probabilistic knobs stay off.
  std::function<bool(const Message&)> drop_filter;

  bool Any() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           drop_filter != nullptr;
  }
};

/// Stateful fault decision maker: owns the deterministic RNG streams
/// behind a TransportFaults config. Not thread-safe — callers on
/// multi-threaded transports serialize access (a short lock around the
/// decision only, never around delivery).
class FaultInjector {
 public:
  explicit FaultInjector(const TransportFaults& faults)
      : faults_(faults),
        // Distinct SplitMix64-scrambled seeds give uncorrelated streams:
        // drop decisions never perturb duplicate decisions and vice versa.
        drop_rng_(faults.seed),
        duplicate_rng_(~faults.seed) {}

  /// True if this message should be dropped (filter first, then coin).
  bool ShouldDrop(const Message& msg) {
    if (faults_.drop_filter && faults_.drop_filter(msg)) {
      ++dropped_;
      return true;
    }
    if (faults_.drop_probability > 0.0 &&
        drop_rng_.NextBool(faults_.drop_probability)) {
      ++dropped_;
      return true;
    }
    return false;
  }

  /// True if a second copy of this message should be delivered.
  bool ShouldDuplicate() {
    if (faults_.duplicate_probability <= 0.0) return false;
    if (!duplicate_rng_.NextBool(faults_.duplicate_probability)) return false;
    ++duplicated_;
    return true;
  }

  const TransportFaults& faults() const { return faults_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t duplicated() const { return duplicated_; }

 private:
  TransportFaults faults_;
  Rng drop_rng_;
  Rng duplicate_rng_;
  /// Value type: synchronization is the owning transport's job —
  /// SimTransport is single-threaded, InProcTransport declares its
  /// injector MR_GUARDED_BY(faults_mu_); the counters inherit that regime.
  uint64_t dropped_ MR_CONTEXT_CONFINED(any) = 0;
  uint64_t duplicated_ MR_CONTEXT_CONFINED(any) = 0;
};

}  // namespace miniraid

#endif  // MINIRAID_NET_FAULTS_H_
