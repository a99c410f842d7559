#ifndef MINIRAID_NET_SIM_TRANSPORT_H_
#define MINIRAID_NET_SIM_TRANSPORT_H_

#include <map>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "net/transport.h"
#include "sim/sim_runtime.h"

namespace miniraid {

struct SimTransportOptions {
  /// One-way delivery delay. The paper measured "the average time for a
  /// single communication from one site to another site ... as nine
  /// milliseconds" (§2.1); that figure is the default.
  Duration message_latency = Milliseconds(9);

  /// Uniform extra delay in [0, latency_jitter] added per message
  /// (deterministic from jitter_seed). Delivery stays FIFO per sender ->
  /// receiver pair — the paper's in-order assumption — by clamping each
  /// arrival to after the pair's previous one.
  Duration latency_jitter = 0;
  uint64_t jitter_seed = 1;
};

/// Transport over the discrete-event runtime: Send schedules OnMessage at
/// the receiver `message_latency` after the (virtual) moment of sending.
/// Delivery is per-pair FIFO and fully deterministic. Also counts messages,
/// which the overhead experiments report.
///
/// Like SimCluster, deliberately unannotated: under the simulator every
/// execution context shares one thread, so MR_RUNS_ON has no true name for
/// these methods. Callers are checked against the Transport base contract.
class SimTransport : public Transport {
 public:
  SimTransport(SimRuntime* sim, const SimTransportOptions& options);

  /// Registers the handler that receives messages addressed to `site`.
  void Register(SiteId site, MessageHandler* handler);

  Status Send(const Message& msg) override;

  uint64_t messages_sent() const { return messages_sent_; }

 private:
  SimRuntime* sim_;
  SimTransportOptions options_;
  // Simulation-only transport: senders and receivers are SimRuntime events,
  // all executed on the driving (client) thread — the loop/managing callers
  // in the call graph never run concurrently with it.
  std::unordered_map<SiteId, MessageHandler*> handlers_
      MR_CONTEXT_CONFINED(client);
  Rng jitter_rng_;
  std::map<std::pair<SiteId, SiteId>, TimePoint> last_arrival_;
  uint64_t messages_sent_ MR_CONTEXT_CONFINED(client) = 0;
};

}  // namespace miniraid

#endif  // MINIRAID_NET_SIM_TRANSPORT_H_
