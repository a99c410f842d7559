#include "net/sim_transport.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace miniraid {

SimTransport::SimTransport(SimRuntime* sim, const SimTransportOptions& options)
    : sim_(sim),
      options_(options),
      injector_(options.faults),
      jitter_rng_(options.jitter_seed) {}

void SimTransport::Register(SiteId site, MessageHandler* handler) {
  handlers_[site] = handler;
}

Status SimTransport::Send(const Message& msg) {
  auto it = handlers_.find(msg.to);
  if (it == handlers_.end()) {
    return Status::InvalidArgument(
        StrFormat("no handler registered for site %u", msg.to));
  }
  if (injector_.ShouldDrop(msg)) {
    ++messages_dropped_;
    return Status::Ok();
  }
  ++messages_sent_;
  MessageHandler* handler = it->second;
  TimePoint arrival = sim_->CurrentTime() + options_.message_latency;
  if (options_.latency_jitter > 0) {
    arrival += static_cast<Duration>(jitter_rng_.NextBounded(
        static_cast<uint64_t>(options_.latency_jitter) + 1));
    // Clamp to preserve per-pair FIFO (the paper's in-order channel).
    TimePoint& last = last_arrival_[{msg.from, msg.to}];
    arrival = std::max(arrival, last + 1);
    last = arrival;
  }
  sim_->ScheduleSiteEvent(arrival, msg.to,
                          [handler, msg]() { handler->OnMessage(msg); });
  // Duplicate decisions come from the injector's own RNG stream, never the
  // latency jitter's, so a same-seed run's original arrivals are identical
  // with duplication on or off.
  if (injector_.ShouldDuplicate()) {
    TimePoint dup_arrival = arrival + injector_.faults().duplicate_delay;
    sim_->ScheduleSiteEvent(dup_arrival, msg.to,
                            [handler, msg]() { handler->OnMessage(msg); });
  }
  return Status::Ok();
}

void SimTransport::ResetCounters() {
  messages_sent_ = 0;
  messages_dropped_ = 0;
}

}  // namespace miniraid
