#include "net/inproc_transport.h"

#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "net/framing.h"

namespace miniraid {

InProcTransport::InProcTransport(const InProcTransportOptions& options)
    : options_(options), injector_(options.faults) {}

void InProcTransport::Register(SiteId site, EventLoop* loop,
                               MessageHandler* handler) {
  endpoints_[site] = std::make_shared<Inbox>(loop, handler);
}

Status InProcTransport::Send(const Message& msg) {
  auto it = endpoints_.find(msg.to);
  if (it == endpoints_.end()) {
    return Status::InvalidArgument(
        StrFormat("no endpoint registered for site %u", msg.to));
  }
  const std::shared_ptr<Inbox>& inbox = it->second;
  bool duplicate = false;
  // With no faults configured the injector would decide nothing, so skip
  // its lock: every site thread sends through this transport.
  if (options_.faults.Any()) {
    // Draw fault decisions under the lock, deliver outside it.
    MutexLock lock(faults_mu_);
    if (injector_.ShouldDrop(msg)) {
      messages_dropped_.fetch_add(1);
      return Status::Ok();
    }
    duplicate = injector_.ShouldDuplicate();
  }
  // Counted before the receiver can see the frame, so no message this one
  // causes is ever counted ahead of it.
  messages_sent_.fetch_add(1);
  const Duration latency = options_.message_latency;
  const Duration copy_latency = latency + options_.faults.duplicate_delay;
  const bool copy_later = duplicate && copy_latency > 0;
  std::vector<uint8_t> later;  // the body of the frames appended on a timer
  bool post = false;
  {
    Inbox& box = *inbox;
    MutexLock lock(box.mu);
    EncodeMessageInto(msg, box.scratch);
    const std::vector<uint8_t>& body = box.scratch.buffer();
    if (latency > 0 || copy_later) later = body;
    if (latency == 0) post = box.Append(body);
    // Appended after the original, so the copy never arrives first.
    if (duplicate && !copy_later) post |= box.Append(body);
  }
  if (post) PostDrain(inbox);
  if (latency > 0) AppendAfter(inbox, latency, later);
  if (copy_later) AppendAfter(inbox, copy_latency, std::move(later));
  return Status::Ok();
}

bool InProcTransport::Inbox::Append(const std::vector<uint8_t>& body) {
  AppendFrame(body, frames);
  return !std::exchange(drain_posted, true);
}

void InProcTransport::PostDrain(const std::shared_ptr<Inbox>& inbox) {
  inbox->loop->Post([inbox] { Drain(*inbox); });
}

void InProcTransport::AppendAfter(const std::shared_ptr<Inbox>& inbox,
                                  Duration delay, std::vector<uint8_t> body) {
  inbox->loop->ScheduleAfter(delay, [inbox, body = std::move(body)] {
    bool post = false;
    {
      Inbox& box = *inbox;
      MutexLock lock(box.mu);
      post = box.Append(body);
    }
    if (post) PostDrain(inbox);
  });
}

void InProcTransport::Drain(Inbox& inbox) {
  {
    MutexLock lock(inbox.mu);
    inbox.draining.swap(inbox.frames);
    inbox.drain_posted = false;
  }
  // Frames appended from here on post the next drain, which runs after
  // this one on the same loop.
  const Result<size_t> consumed = DeliverFrames(
      inbox.draining.data(), inbox.draining.size(), *inbox.handler);
  MR_CHECK(consumed.ok() && *consumed == inbox.draining.size())
      << "in-process frame delivery failed: " << consumed.status().ToString();
  ResetFrameBuffer(inbox.draining);
}

}  // namespace miniraid
