#ifndef MINIRAID_CHECK_TRACE_IO_H_
#define MINIRAID_CHECK_TRACE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "replication/options.h"
#include "txn/transaction.h"

namespace miniraid::check {

/// One externally injected step of a systematic-exploration schedule:
/// submit a transaction to a coordinator, or fail / recover a site through
/// the managing site's control channel.
struct ScheduleAction {
  enum class Kind : uint8_t { kSubmit = 0, kFail = 1, kRecover = 2 };

  Kind kind = Kind::kSubmit;
  /// Coordinator for kSubmit; target site for kFail / kRecover.
  SiteId site = 0;
  /// kSubmit only. Ids must be unique within a schedule (the managing site
  /// checks).
  TxnSpec txn;
  /// A serial action is injected only at quiescent points (queue drained),
  /// never offered as a scheduling choice. Use it for the deterministic
  /// set-up prefix of a scenario so the branching budget is spent on the
  /// interesting suffix.
  bool serial = false;

  std::string ToString() const;

  static ScheduleAction Submit(const TxnSpec& txn, SiteId coordinator,
                               bool serial = false) {
    return ScheduleAction{Kind::kSubmit, coordinator, txn, serial};
  }
  static ScheduleAction Fail(SiteId site, bool serial = false) {
    return ScheduleAction{Kind::kFail, site, {}, serial};
  }
  static ScheduleAction Recover(SiteId site, bool serial = false) {
    return ScheduleAction{Kind::kRecover, site, {}, serial};
  }
};

/// A fully deterministic replayable execution of the systematic checker:
/// the cluster configuration, the action schedule, and — for every
/// scheduling point that had more than one enabled option — the index that
/// was taken (`picks`) plus how many options were enabled there
/// (`fanouts`, same length). Replay re-derives the option sets from the
/// real code and asserts both arrays match point for point, so a checked-in
/// counterexample doubles as a byte-for-byte determinism regression test.
struct CheckTrace {
  uint32_t version = 1;
  uint32_t n_sites = 3;
  uint32_t db_size = 2;
  /// Intra-site concurrency configuration of the execution. Serialized only
  /// when non-serial, and parsed with serial defaults, so traces recorded
  /// before the concurrency extension replay unchanged.
  ConcurrencyOptions concurrency;
  /// Free-form provenance ("found by ExploreSystematic, scenario X").
  std::string note;
  std::vector<ScheduleAction> actions;
  std::vector<uint32_t> picks;
  std::vector<uint32_t> fanouts;
};

/// Serializes `trace` as pretty-printed JSON (stable field order, one pick
/// list per line — diffable under version control).
std::string TraceToJson(const CheckTrace& trace);

/// Parses a trace produced by TraceToJson (or written by hand). Returns
/// InvalidArgument with a position-annotated message on malformed input.
Result<CheckTrace> TraceFromJson(std::string_view json);

/// Convenience wrappers over whole files.
Result<CheckTrace> ReadTraceFile(const std::string& path);
Status WriteTraceFile(const std::string& path, const CheckTrace& trace);

}  // namespace miniraid::check

#endif  // MINIRAID_CHECK_TRACE_IO_H_
