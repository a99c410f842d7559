#include "net/sim_transport.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace miniraid {

SimTransport::SimTransport(SimRuntime* sim, const SimTransportOptions& options)
    : sim_(sim), options_(options), jitter_rng_(options.jitter_seed) {}

void SimTransport::Register(SiteId site, MessageHandler* handler) {
  handlers_[site] = handler;
}

Status SimTransport::Send(const Message& msg) {
  auto it = handlers_.find(msg.to);
  if (it == handlers_.end()) {
    return Status::InvalidArgument(
        StrFormat("no handler registered for site %u", msg.to));
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
  return Status::Ok();
}

}  // namespace miniraid
