#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"
#include "net/framing.h"

namespace miniraid {
namespace {

/// Read buffer per inbound connection; one recv() takes up to this much.
constexpr size_t kReadBufferBytes = 64 * 1024;

bool WouldBlock(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

}  // namespace

TcpTransport::TcpTransport(SiteId self, std::map<SiteId, uint16_t> peers,
                           EventLoop* loop, MessageHandler* handler,
                           const TcpTransportOptions& options)
    : self_(self),
      peers_(std::move(peers)),
      loop_(loop),
      handler_(handler),
      options_(options) {
  for (const auto& [id, port] : peers_) out_[id];
}

TcpTransport::~TcpTransport() {
  Stop();
  // A loop stopped before this transport never ran the teardown, and
  // nothing runs on it any more: close what it left open here.
  {
    MutexLock lock(conn_mu_);
    for (auto& [id, peer] : out_) {
      if (peer.fd >= 0) ::close(peer.fd);
    }
  }
  for (auto& [fd, conn] : inbound_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status TcpTransport::Start() {
  if (handler_ == nullptr) {
    return Status::FailedPrecondition("TcpTransport started without handler");
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peers_.at(self_));
  Status status = Status::Ok();
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    status = Status::InvalidArgument("bad bind address " +
                                     options_.bind_address);
  } else if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
             0) {
    status = Status::IoError(StrFormat("bind port %u: %s", peers_.at(self_),
                                       std::strerror(errno)));
  } else if (::listen(fd, 64) < 0) {
    status = Status::IoError(StrFormat("listen: %s", std::strerror(errno)));
  } else if (!loop_->PostAndWait([this, fd] {
               listen_fd_ = fd;
               loop_->Watch(fd, EPOLLIN, [this](uint32_t) { OnAcceptable(); });
             })) {
    status = Status::FailedPrecondition("event loop stopped");
  }
  if (!status.ok()) ::close(fd);
  return status;
}

void TcpTransport::Stop() {
  {
    MutexLock lock(conn_mu_);
    stopping_ = true;
  }
  // Every flush task was posted under conn_mu_ before stopping_ was set,
  // so all of them run before the teardown and none after it.
  loop_->PostAndWait([this] { Teardown(); });
}

void TcpTransport::Teardown() {
  {
    MutexLock lock(conn_mu_);
    for (auto& [id, peer] : out_) Disconnect(peer);
  }
  for (auto& [fd, conn] : inbound_) {
    loop_->Unwatch(fd);
    ::close(fd);
  }
  inbound_.clear();
  if (listen_fd_ >= 0) {
    loop_->Unwatch(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpTransport::OnAcceptable() {
  while (true) {
    // The listen socket is O_NONBLOCK: with no pending connection this
    // returns EAGAIN instead of waiting. miniraid-lint: allow(blocking-call)
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (!WouldBlock(errno)) {
        MR_LOG(kError) << "site " << self_ << ": accept: "
                       << std::strerror(errno) << "; no longer accepting";
        loop_->Unwatch(listen_fd_);
      }
      return;
    }
    Inbound* conn = &inbound_[fd];
    conn->fd = fd;
    conn->buf = std::make_unique_for_overwrite<uint8_t[]>(kReadBufferBytes);
    conn->capacity = kReadBufferBytes;
    loop_->Watch(fd, EPOLLIN, [this, conn](uint32_t) { OnReadable(conn); });
  }
}

void TcpTransport::OnReadable(Inbound* conn) {
  ssize_t n = 0;
  do {
    // O_NONBLOCK socket: with nothing to read this returns EAGAIN instead
    // of waiting. miniraid-lint: allow(blocking-call)
    n = ::recv(conn->fd, conn->buf.get() + conn->end,
               conn->capacity - conn->end, 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && WouldBlock(errno)) return;
  if (n <= 0) {
    if (n < 0) {
      MR_LOG(kWarn) << "site " << self_ << ": recv: " << std::strerror(errno);
    }
    CloseInbound(conn);  // orderly EOF or a broken connection
    return;
  }
  conn->end += static_cast<size_t>(n);

  // Deliver every complete frame inline: this is the site's own loop, so
  // the handler runs in its context.
  const Result<size_t> consumed =
      DeliverFrames(conn->buf.get(), conn->end, *handler_);
  if (!consumed.ok()) {
    MR_LOG(kError) << "site " << self_ << ": "
                   << consumed.status().ToString() << "; closing connection";
    CloseInbound(conn);
    return;
  }

  // Move the undecoded rest to the front, into a buffer that holds the
  // whole frame it starts (DeliverFrames checked its length against the
  // bound); a buffer a large frame grew shrinks back once that frame is
  // consumed.
  const size_t begin = *consumed;
  const size_t rest = conn->end - begin;
  size_t need = kReadBufferBytes;
  if (rest >= kFrameHeaderBytes) {
    need = std::max(need,
                    kFrameHeaderBytes + FrameLength(conn->buf.get() + begin));
  }
  if (need > conn->capacity || (rest == 0 && conn->capacity > need)) {
    auto buf = std::make_unique_for_overwrite<uint8_t[]>(need);
    std::memcpy(buf.get(), conn->buf.get() + begin, rest);
    conn->buf = std::move(buf);
    conn->capacity = need;
  } else if (rest > 0 && begin > 0) {
    std::memmove(conn->buf.get(), conn->buf.get() + begin, rest);
  }
  conn->end = rest;
}

void TcpTransport::CloseInbound(Inbound* conn) {
  const int fd = conn->fd;
  loop_->Unwatch(fd);
  ::close(fd);
  inbound_.erase(fd);
}

Status TcpTransport::Connect(SiteId to, Peer& peer) {
  const uint16_t port = peers_.at(to);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr);
  // The lazy connect on the first Send to a peer: on loopback the kernel
  // completes the handshake against the peer's listen backlog, without
  // waiting for the peer's loop. miniraid-lint: allow(blocking-call)
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(StrFormat("connect to site %u port %u: %s", to,
                                     port, std::strerror(err)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  peer.fd = fd;
  return Status::Ok();
}

void TcpTransport::Disconnect(Peer& peer) {
  if (peer.fd < 0) return;
  if (peer.watching) loop_->Unwatch(peer.fd);
  ::close(peer.fd);
  peer = Peer{};
}

void TcpTransport::Flush(SiteId to) {
  MutexLock lock(conn_mu_);
  Peer& peer = out_.find(to)->second;
  // Disconnected since the flush was queued, or about to be torn down.
  if (peer.fd < 0 || stopping_) return;
  if (peer.written < peer.out.size()) {
    ssize_t n = 0;
    do {
      // O_NONBLOCK socket: a full send buffer returns EAGAIN instead of
      // waiting for the receiver. miniraid-lint: allow(blocking-call)
      n = ::send(peer.fd, peer.out.data() + peer.written,
                 peer.out.size() - peer.written, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0 && !WouldBlock(errno)) {
      // Drop the broken connection and its unsent frames; the next Send
      // reconnects.
      MR_LOG(kWarn) << "site " << self_ << ": send to site " << to << ": "
                    << std::strerror(errno);
      Disconnect(peer);
      return;
    }
    if (n > 0) peer.written += static_cast<size_t>(n);
  }
  if (peer.written < peer.out.size()) {
    // The socket took only part: finish once the receiver drains it.
    if (!peer.watching) {
      loop_->Watch(peer.fd, EPOLLOUT, [this, to](uint32_t) { Flush(to); });
      peer.watching = true;
    }
    return;
  }
  ResetFrameBuffer(peer.out);
  peer.written = 0;
  if (peer.watching) {
    loop_->Unwatch(peer.fd);
    peer.watching = false;
  }
  peer.flush_queued = false;
}

Status TcpTransport::Send(const Message& msg) {
  MutexLock lock(conn_mu_);
  if (stopping_) return Status::FailedPrecondition("transport stopped");
  auto it = out_.find(msg.to);
  if (it == out_.end()) {
    return Status::InvalidArgument(StrFormat("unknown peer site %u", msg.to));
  }
  Peer& peer = it->second;
  if (peer.fd < 0) MINIRAID_RETURN_IF_ERROR(Connect(msg.to, peer));
  EncodeMessageInto(msg, scratch_);
  // Posted under conn_mu_, so the flush cannot run before the append.
  if (!peer.flush_queued) {
    if (!loop_->Post([this, to = msg.to] { Flush(to); })) {
      return Status::FailedPrecondition("event loop stopped");
    }
    peer.flush_queued = true;
  }
  AppendFrame(scratch_.buffer(), peer.out);
  // Counted before the flush can write the frame (it takes conn_mu_), so
  // no message this one causes is ever counted ahead of it.
  messages_sent_.fetch_add(1);
  return Status::Ok();
}

uint16_t PickEphemeralBasePort() {
  // The pid keeps concurrently running test binaries apart; the counter
  // keeps multiple clusters within one process apart (each cluster uses a
  // contiguous run of ports, so stride by more than any plausible cluster
  // size). The range stays below the kernel's default ephemeral range
  // (32768-60999): the local port of a closed outbound connection lingers
  // there in TIME_WAIT without SO_REUSEADDR and would fail the listen bind.
  static std::atomic<uint32_t> next_cluster{0};
  const uint32_t slot = next_cluster.fetch_add(1);
  return static_cast<uint16_t>(
      10000 + (uint32_t(::getpid()) * 37 + slot * 128) % 20000);
}

}  // namespace miniraid
