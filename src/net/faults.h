#ifndef MINIRAID_NET_FAULTS_H_
#define MINIRAID_NET_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "msg/message.h"
#include "net/transport.h"

namespace miniraid {

/// The fault model of a cluster (ClusterOptions::faults), the same on every
/// backend: a lossy-network experiment configured once runs anywhere. The
/// paper assumes a reliable network ("no messages were lost"); these knobs
/// deliberately break that assumption to exercise the reliable channel and
/// the protocol's duplicate tolerance. A FaultLayer applies them above the
/// transport, which itself only delivers.
struct TransportFaults {
  /// Probability that a message is silently dropped, drawn per send.
  double drop_probability = 0.0;

  /// Probability that a message is handed up twice, back to back, drawn
  /// per delivery from an RNG stream separate from the drops'. A copy
  /// never moves its original's arrival and draws nothing from the drop
  /// stream (the messages it provokes, such as re-acks, do).
  double duplicate_probability = 0.0;

  /// Seed for the drop and duplicate decision streams (deterministic under
  /// the simulator; on the real backends which message draws which
  /// decision also depends on thread scheduling).
  uint64_t seed = 1;

  /// Optional targeted drop: return true to drop this message. Evaluated
  /// before drop_probability (either one drops). Lets tests kill a
  /// specific protocol message while the probabilistic knobs stay off. On
  /// the real backends it runs on every sender's loop thread at once, so
  /// a filter with state must synchronize it.
  std::function<bool(const Message&)> drop_filter;

  bool Any() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           drop_filter != nullptr;
  }
};

/// The drop and duplicate decisions of one cluster: the deterministic RNG
/// streams behind a TransportFaults config and the count of drops. Every
/// endpoint's FaultLayer shares the one injector, so on every backend the
/// sends of all endpoints draw from one drop stream. Thread-safe: each
/// coin is drawn under a short lock, and the filter runs outside it.
class FaultInjector {
 public:
  explicit FaultInjector(const TransportFaults& faults);

  /// True if this message should be dropped (filter first, then coin).
  MR_RUNS_ON(any) bool ShouldDrop(const Message& msg);

  /// True if this delivery should be handed up a second time.
  MR_RUNS_ON(any) bool ShouldDuplicate();

  /// Messages dropped so far.
  MR_RUNS_ON(any) uint64_t dropped() const;

 private:
  /// Never written after construction, so read without the lock.
  const TransportFaults faults_;
  Mutex mu_;
  // Distinct seeds give uncorrelated streams: drop decisions never
  // perturb duplicate decisions and vice versa.
  Rng drop_rng_ MR_GUARDED_BY(mu_);
  Rng duplicate_rng_ MR_GUARDED_BY(mu_);
  std::atomic<uint64_t> dropped_{0};
};

/// Fronts one endpoint the way a ReliableChannel does, below it when both
/// are stacked: it is the Transport the endpoint (or its channel) sends
/// through and the MessageHandler its transport delivers to. Send draws
/// the drop decision before the inner transport sees (and counts) the
/// message; delivery draws the duplicate decision and hands a duplicated
/// message up twice, back to back, so a copy never overtakes its original
/// and the transport counts it once. Holds nothing but its wiring: every
/// call runs in whichever context the transport gives it.
class FaultLayer : public Transport, public MessageHandler {
 public:
  FaultLayer(FaultInjector* injector, Transport* inner,
             MessageHandler* upper);

  FaultLayer(const FaultLayer&) = delete;
  FaultLayer& operator=(const FaultLayer&) = delete;

  /// Late wiring for construction cycles (layer before endpoint); must be
  /// set before any message flows.
  MR_RUNS_ON(any) void set_upper(MessageHandler* upper) { upper_ = upper; }

  MR_RUNS_ON(any) Status Send(const Message& msg) override;
  MR_RUNS_ON(any) void OnMessage(const Message& msg) override;

 private:
  FaultInjector* const injector_;
  Transport* const inner_;
  /// Written once by set_upper() during wiring, before the loop starts
  /// delivering; read only by OnMessage after that. The phases cannot
  /// overlap.
  MessageHandler* upper_ MR_CONTEXT_CONFINED(loop);
};

}  // namespace miniraid

#endif  // MINIRAID_NET_FAULTS_H_
