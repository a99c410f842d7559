#ifndef MINIRAID_NET_INPROC_TRANSPORT_H_
#define MINIRAID_NET_INPROC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/event_loop.h"
#include "net/faults.h"
#include "net/transport.h"

namespace miniraid {

struct InProcTransportOptions {
  /// One-way delivery delay, emulating the inter-site link latency the
  /// simulator models (SimTransportOptions::message_latency; the paper
  /// measured 9 ms per message). 0 = deliver as soon as the destination
  /// loop gets to it. Timer-based: each frame joins the destination's
  /// inbox `message_latency` after its Send, so every message waits the
  /// full delay, no thread ever blocks, and per-pair FIFO is preserved
  /// (equal deadlines fire in insertion order).
  Duration message_latency = 0;

  /// Fault injection (loss, duplication, duplicate delay) shared with the
  /// sim and TCP transports; defaults inject nothing. The decision streams
  /// are deterministic per seed, but which Send draws which decision
  /// depends on thread interleaving on this backend.
  TransportFaults faults;
};

/// Real message passing between sites running as threads in one process —
/// the closest analogue of the paper's "database sites ... implemented as
/// Unix processes (on one processor with one process per site)". It is
/// TcpTransport without the socket: Send encodes the message and appends
/// the frame to the destination's inbox, the first frame since the last
/// drain posts one drain task to the destination's EventLoop, and the
/// drain delivers every frame in order with TCP's decode loop
/// (DeliverFrames in net/framing.h). Per-pair FIFO follows from each
/// sender running on one thread and the inbox keeping append order.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(
      const InProcTransportOptions& options = InProcTransportOptions{});

  /// Registers `site`'s loop and handler. Not thread-safe against Send;
  /// register all sites before starting traffic.
  MR_RUNS_ON(client)
  void Register(SiteId site, EventLoop* loop, MessageHandler* handler);

  MR_RUNS_ON(any) Status Send(const Message& msg) override;

  /// Messages accepted for delivery so far (a duplicated message counts
  /// once). Safe from any thread.
  MR_RUNS_ON(any) uint64_t messages_sent() const {
    return messages_sent_.load();
  }

  /// Messages dropped by fault injection so far. Safe from any thread.
  MR_RUNS_ON(any) uint64_t messages_dropped() const {
    return messages_dropped_.load();
  }

 private:
  /// One registered endpoint and the frames sent to it but not yet
  /// delivered. Held by shared_ptr: the drain and delayed-append tasks
  /// queued on its loop hold it too, so they stay safe after the
  /// transport is destroyed.
  struct Inbox {
    Inbox(EventLoop* loop, MessageHandler* handler)
        : loop(loop), handler(handler) {}

    /// Appends one frame. True if it is the first since the last drain:
    /// the caller then posts a drain, after releasing `mu`.
    bool Append(const std::vector<uint8_t>& body) MR_REQUIRES(mu);

    /// Set by Register and never written again, so any thread reads them
    /// without a lock.
    EventLoop* const loop;
    MessageHandler* const handler;
    /// Send runs on every site's loop thread, so the encode and the
    /// append happen under this lock; delivery never does.
    Mutex mu;
    std::vector<uint8_t> frames MR_GUARDED_BY(mu);
    Encoder scratch MR_GUARDED_BY(mu);
    bool drain_posted MR_GUARDED_BY(mu) = false;
    /// The frames the running drain delivers, swapped out of `frames`
    /// under `mu`. Only drains touch it, and they all run on `loop`.
    std::vector<uint8_t> draining MR_CONTEXT_CONFINED(loop);
  };

  MR_RUNS_ON(any) static void PostDrain(const std::shared_ptr<Inbox>& inbox);
  /// Appends `body` to the inbox `delay` from now, on a timer of its loop.
  MR_RUNS_ON(any)
  static void AppendAfter(const std::shared_ptr<Inbox>& inbox, Duration delay,
                          std::vector<uint8_t> body);
  MR_RUNS_ON(loop) static void Drain(Inbox& inbox);

  InProcTransportOptions options_;
  /// Populated by Register() during cluster wiring, before any site thread
  /// starts; steady-state Send() from loop/managing threads only reads it.
  /// The phases cannot overlap, so no lock is needed on the map itself.
  std::unordered_map<SiteId, std::shared_ptr<Inbox>> endpoints_
      MR_CONTEXT_CONFINED(client);
  /// Send runs on every site's loop thread, so fault decisions (which
  /// mutate RNG state) are drawn under a short lock; delivery itself never
  /// happens while the lock is held.
  Mutex faults_mu_;
  FaultInjector injector_ MR_GUARDED_BY(faults_mu_);
  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> messages_dropped_{0};
};

}  // namespace miniraid

#endif  // MINIRAID_NET_INPROC_TRANSPORT_H_
