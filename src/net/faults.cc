#include "net/faults.h"

namespace miniraid {

FaultInjector::FaultInjector(const TransportFaults& faults)
    : faults_(faults), drop_rng_(faults.seed), duplicate_rng_(~faults.seed) {}

bool FaultInjector::ShouldDrop(const Message& msg) {
  bool drop = faults_.drop_filter && faults_.drop_filter(msg);
  if (!drop && faults_.drop_probability > 0.0) {
    MutexLock lock(mu_);
    drop = drop_rng_.NextBool(faults_.drop_probability);
  }
  if (drop) dropped_.fetch_add(1);
  return drop;
}

bool FaultInjector::ShouldDuplicate() {
  if (faults_.duplicate_probability <= 0.0) return false;
  MutexLock lock(mu_);
  return duplicate_rng_.NextBool(faults_.duplicate_probability);
}

uint64_t FaultInjector::dropped() const { return dropped_.load(); }

FaultLayer::FaultLayer(FaultInjector* injector, Transport* inner,
                       MessageHandler* upper)
    : injector_(injector), inner_(inner), upper_(upper) {}

Status FaultLayer::Send(const Message& msg) {
  if (injector_->ShouldDrop(msg)) return Status::Ok();
  return inner_->Send(msg);
}

void FaultLayer::OnMessage(const Message& msg) {
  const bool twice = injector_->ShouldDuplicate();
  upper_->OnMessage(msg);
  if (twice) upper_->OnMessage(msg);
}

}  // namespace miniraid
