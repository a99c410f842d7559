#include "net/inproc_transport.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "net/framing.h"

namespace miniraid {

InProcTransport::InProcTransport(const InProcTransportOptions& options)
    : options_(options) {}

void InProcTransport::Register(SiteId site, EventLoop* loop,
                               MessageHandler* handler) {
  MR_CHECK(!endpoints_.contains(site))
      << "site " << site << " registered twice";
  const size_t count = endpoints_.size() + 1;
  endpoints_[site] =
      Endpoint{count - 1, std::make_shared<Inbox>(loop, handler),
               std::make_shared<Sender>(loop)};
  auto give_outboxes = [this, count](Sender& sender) {
    MutexLock lock(sender.mu);
    sender.outboxes.resize(count);
    sender.flushing.resize(count);
    for (const auto& [id, endpoint] : endpoints_) {
      sender.outboxes[endpoint.index].to = endpoint.inbox;
      sender.flushing[endpoint.index].to = endpoint.inbox;
    }
  };
  for (const auto& [id, endpoint] : endpoints_) give_outboxes(*endpoint.sender);
  give_outboxes(*unregistered_);
}

Status InProcTransport::Send(const Message& msg) {
  auto to = endpoints_.find(msg.to);
  if (to == endpoints_.end()) {
    return Status::InvalidArgument(
        StrFormat("no endpoint registered for site %u", msg.to));
  }
  // Counted before the receiver can see the frame, so no message this one
  // causes is ever counted ahead of it.
  messages_sent_.fetch_add(1);
  const Endpoint& dest = to->second;
  const auto from = endpoints_.find(msg.from);
  const std::shared_ptr<Sender>& sender =
      from == endpoints_.end() ? unregistered_ : from->second.sender;
  const Duration latency = options_.message_latency;
  std::vector<uint8_t> later;  // the body of a frame queued on a timer
  std::vector<uint8_t> now;    // frames of a sender with no loop
  {
    Sender& out = *sender;
    MutexLock lock(out.mu);
    EncodeMessageInto(msg, out.scratch);
    if (latency > 0) {
      later = out.scratch.buffer();
    } else {
      out.Append(dest.index, out.scratch.buffer());
      out.EndTurn(dest.index, now);
    }
  }
  if (latency == 0) {
    HandOver(dest.inbox, now);
    return Status::Ok();
  }
  // A delayed frame joins the sender's outbox on the sender's own loop, or
  // on the receiver's for a sender with none. A loop runs the flush a turn
  // posted before its next due timer, so the frames of one pair keep their
  // order.
  EventLoop* const loop =
      sender->loop != nullptr ? sender->loop : dest.inbox->loop;
  EnqueueAfter(sender, loop, dest.inbox, dest.index, latency,
               std::move(later));
  return Status::Ok();
}

void InProcTransport::Sender::Append(size_t to,
                                     const std::vector<uint8_t>& body) {
  AppendFrame(body, outboxes[to].frames);
}

void InProcTransport::Sender::EndTurn(size_t to, std::vector<uint8_t>& now) {
  if (loop == nullptr) {
    now.swap(outboxes[to].frames);
    return;
  }
  if (std::exchange(flush_posted, true)) return;
  // Posted under `mu`, so the flush cannot run before the append.
  loop->Post([self = shared_from_this()] { Flush(*self); });
}

void InProcTransport::Flush(Sender& sender) {
  {
    MutexLock lock(sender.mu);
    sender.flush_posted = false;
    sender.outboxes.swap(sender.flushing);
  }
  // Frames sent from here on post the next flush, which runs after this
  // one on the same loop.
  for (Outbox& outbox : sender.flushing) HandOver(outbox.to, outbox.frames);
}

void InProcTransport::HandOver(const std::shared_ptr<Inbox>& to,
                               std::vector<uint8_t>& frames) {
  if (frames.empty()) return;
  bool was_empty = false;
  {
    Inbox& inbox = *to;
    MutexLock lock(inbox.mu);
    was_empty = inbox.frames.empty();
    if (was_empty) {
      inbox.frames.swap(frames);
    } else {
      inbox.frames.insert(inbox.frames.end(), frames.begin(), frames.end());
    }
  }
  ResetFrameBuffer(frames);
  if (was_empty) to->loop->Post([to] { Drain(*to); });
}

void InProcTransport::EnqueueAfter(const std::shared_ptr<Sender>& sender,
                                   EventLoop* loop,
                                   const std::shared_ptr<Inbox>& to,
                                   size_t index, Duration delay,
                                   std::vector<uint8_t> body) {
  loop->ScheduleAfter(delay, [sender, to, index, body = std::move(body)] {
    std::vector<uint8_t> now;
    {
      Sender& out = *sender;
      MutexLock lock(out.mu);
      out.Append(index, body);
      out.EndTurn(index, now);
    }
    HandOver(to, now);
  });
}

void InProcTransport::Drain(Inbox& inbox) {
  {
    MutexLock lock(inbox.mu);
    inbox.draining.swap(inbox.frames);
  }
  // Frames handed over from here on find the inbox empty and post the next
  // drain, which runs after this one on the same loop.
  const Result<size_t> consumed = DeliverFrames(
      inbox.draining.data(), inbox.draining.size(), *inbox.handler);
  MR_CHECK(consumed.ok() && *consumed == inbox.draining.size())
      << "in-process frame delivery failed: " << consumed.status().ToString();
  ResetFrameBuffer(inbox.draining);
}

}  // namespace miniraid
