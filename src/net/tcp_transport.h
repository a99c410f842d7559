#ifndef MINIRAID_NET_TCP_TRANSPORT_H_
#define MINIRAID_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/event_loop.h"
#include "net/transport.h"

namespace miniraid {

struct TcpTransportOptions {
  /// Address every peer binds on. Experiments run on localhost, like the
  /// paper's single-machine testbed; any IPv4 address works.
  std::string bind_address = "127.0.0.1";
};

/// Message passing over real TCP sockets, one transport instance per site.
/// One outbound connection per destination gives per-pair FIFO delivery
/// (the paper's reliable ordered channel). InProcTransport is the same
/// framing, per-turn hand-over and delivery without the socket.
///
/// Threading: one thread per endpoint, the site's own EventLoop. The loop
/// accepts inbound connections, reads them non-blocking into a buffer per
/// connection, and delivers every complete frame inline (DeliverFrames in
/// net/framing.h), so the handler runs in the site's context with no
/// hand-off. Send may run on any thread: it appends the frame to the
/// destination's buffer, and the first append since the last write posts
/// one flush task that writes the whole buffer with a single send() once
/// the loop's current turn ends. A remainder the socket cannot take yet
/// waits for EPOLLOUT; Send never blocks on the receiver. The only
/// blocking call left is the lazy connect on the first Send to a peer,
/// which on loopback completes in the kernel without waiting for the
/// peer's loop.
///
/// Wire format: the frames of net/framing.h. Frames above 16 MiB, and
/// frames that do not decode, close the connection they arrived on.
class TcpTransport : public Transport {
 public:
  /// `peers` maps every site id (including `self`) to its TCP port.
  /// `handler` may be null at construction (to break the transport<->site
  /// dependency cycle) but must be set via set_handler before Start().
  /// Stop the transport before `loop`: the teardown runs there (if the
  /// loop stops first, the destructor closes what is left).
  TcpTransport(SiteId self, std::map<SiteId, uint16_t> peers, EventLoop* loop,
               MessageHandler* handler,
               const TcpTransportOptions& options = TcpTransportOptions{});

  /// Sets the inbound message consumer. Must happen before Start().
  MR_RUNS_ON(client) void set_handler(MessageHandler* handler) {
    handler_ = handler;
  }
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds, listens, and has the loop accept connections.
  MR_RUNS_ON(client) Status Start();

  /// Closes every socket on the loop, dropping frames not yet written;
  /// no message is delivered to the handler once it returns. Idempotent.
  MR_RUNS_ON(client) void Stop();

  /// Thread-safe; lazily connects to the destination on first use.
  MR_RUNS_ON(any) Status Send(const Message& msg) override;

  /// Messages accepted for sending, not socket calls.
  MR_RUNS_ON(any) uint64_t messages_sent() const {
    return messages_sent_.load();
  }

 private:
  /// One outbound connection and the frames not yet written to it.
  struct Peer {
    int fd = -1;
    std::vector<uint8_t> out;   // framed bytes; [0, written) already sent
    size_t written = 0;
    bool flush_queued = false;  // a flush task or an EPOLLOUT watch is live
    bool watching = false;      // EPOLLOUT watch registered
  };

  /// One accepted connection: `buf` starts with the `end` bytes read but
  /// not yet decoded (a partial frame).
  struct Inbound {
    int fd = -1;
    std::unique_ptr<uint8_t[]> buf;
    size_t capacity = 0;
    size_t end = 0;
  };

  MR_RUNS_ON(loop) void OnAcceptable();
  MR_RUNS_ON(loop) void OnReadable(Inbound* conn);
  MR_RUNS_ON(loop) void CloseInbound(Inbound* conn);
  /// Writes `to`'s pending bytes with one send(); arms EPOLLOUT for a
  /// remainder the socket cannot take yet.
  MR_RUNS_ON(loop) void Flush(SiteId to);
  MR_RUNS_ON(loop) void Teardown();
  Status Connect(SiteId to, Peer& peer) MR_REQUIRES(conn_mu_);
  MR_RUNS_ON(loop) void Disconnect(Peer& peer) MR_REQUIRES(conn_mu_);

  SiteId self_;
  std::map<SiteId, uint16_t> peers_;
  EventLoop* loop_;
  /// Written once by set_handler() during wiring; read only by the loop's
  /// fd callbacks, which Start() registers afterwards — the phases cannot
  /// overlap.
  MessageHandler* handler_ MR_CONTEXT_CONFINED(loop);
  TcpTransportOptions options_;

  // Lock order (statically declared): each transport mutex comes before
  // the EventLoop's queue mutex — Send posts the flush task while holding
  // conn_mu_, but loop internals never call into the transport with their
  // queue lock held (tasks and fd callbacks run with it released). This
  // forbids at compile time the loop<->transport deadlock class TSan can
  // only observe on an unlucky interleaving.
  Mutex conn_mu_ MR_ACQUIRED_BEFORE(loop_->mu_);
  std::map<SiteId, Peer> out_ MR_GUARDED_BY(conn_mu_);
  /// Encode scratch space: Send encodes here, then copies the frame into
  /// the destination's buffer, so steady-state sends allocate nothing.
  Encoder scratch_ MR_GUARDED_BY(conn_mu_);
  /// Set by Stop() before the teardown is posted, so no Send connects or
  /// queues a flush behind it.
  bool stopping_ MR_GUARDED_BY(conn_mu_) = false;

  /// Loop-confined: Start() hands the listen socket to the loop inside a
  /// PostAndWait, and only loop callbacks and Teardown touch it after that
  /// (the destructor closes what a stopped loop left behind).
  int listen_fd_ MR_CONTEXT_CONFINED(loop) = -1;
  /// Keyed by fd; map nodes stay put, so callbacks hold Inbound*.
  /// Loop-confined like listen_fd_.
  std::map<int, Inbound> inbound_ MR_CONTEXT_CONFINED(loop);

  std::atomic<uint64_t> messages_sent_{0};
};

/// Returns a base port unlikely to collide between concurrently running
/// test binaries (derived from the process id) or between multiple TCP
/// clusters in one process (an atomic per-process counter advances the
/// range on every call). Ports come from 10000-30099, below the kernel's
/// default ephemeral range.
uint16_t PickEphemeralBasePort();

}  // namespace miniraid

#endif  // MINIRAID_NET_TCP_TRANSPORT_H_
