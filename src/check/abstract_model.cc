#include "check/abstract_model.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace miniraid::check {

namespace {

/// Lattice join of two session-vector entries, matching
/// SessionVector::MergeFrom: the higher session wins; at equal sessions,
/// down wins (failure news about the current epoch beats optimism).
PeerView Join(PeerView a, PeerView b) {
  if (a.session != b.session) return a.session > b.session ? a : b;
  if (!a.up) return a;
  return b;
}

uint8_t FullMask(uint32_t n) { return static_cast<uint8_t>((1u << n) - 1); }

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Finalizer from splitmix64; spreads FNV output so the XOR-accumulated
/// fingerprint is robust.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

void ValidateConfig(const AbstractConfig& cfg) {
  MR_CHECK(cfg.n_sites >= 2 && cfg.n_sites <= kMaxModelSites)
      << "abstract model supports 2.." << kMaxModelSites << " sites";
  MR_CHECK(cfg.n_items >= 1 && cfg.n_items <= kMaxModelItems)
      << "abstract model supports 1.." << kMaxModelItems << " items";
}

bool Quiescent(const AbstractConfig& cfg, const ModelState& s) {
  for (uint32_t i = 0; i < cfg.n_sites; ++i) {
    if (s.rec[i].active) return false;
  }
  for (uint32_t x = 0; x < cfg.n_items; ++x) {
    // A commit between prepare and apply is an in-flight coordination:
    // the real checker's quiescent cuts require those drained too.
    if (s.pend[x].active) return false;
  }
  return true;
}

}  // namespace

ModelState InitialState(const AbstractConfig& cfg) {
  ValidateConfig(cfg);
  return ModelState{};
}

std::string ModelState::Encode(const AbstractConfig& cfg,
                               const uint8_t* site_perm,
                               const uint8_t* item_perm) const {
  // site_perm[new_index] = old_index (likewise item_perm): the encoding
  // reads the state through the relabeling, so two states are symmetric
  // exactly when some relabeled encoding matches.
  std::string out;
  out.reserve(4 + cfg.n_sites * (2 + 2 * cfg.n_sites + 2 * cfg.n_items) +
              cfg.n_sites * (4 + 2 * cfg.n_sites + 3 * cfg.n_items) +
              cfg.n_items);
  auto remap_bits = [&](uint8_t row) {
    uint8_t mapped = 0;
    for (uint32_t nk = 0; nk < cfg.n_sites; ++nk) {
      if ((row >> site_perm[nk]) & 1u) mapped |= static_cast<uint8_t>(1u << nk);
    }
    return static_cast<char>(mapped);
  };
  for (uint32_t ni = 0; ni < cfg.n_sites; ++ni) {
    const ModelSite& s = site[site_perm[ni]];
    out.push_back(static_cast<char>(s.mode));
    for (uint32_t nj = 0; nj < cfg.n_sites; ++nj) {
      const PeerView& v = s.view[site_perm[nj]];
      out.push_back(static_cast<char>(v.session));
      out.push_back(v.up ? 1 : 0);
    }
    for (uint32_t nx = 0; nx < cfg.n_items; ++nx) {
      out.push_back(remap_bits(s.locks[item_perm[nx]]));
      out.push_back(static_cast<char>(s.ver[item_perm[nx]]));
    }
  }
  for (uint32_t ni = 0; ni < cfg.n_sites; ++ni) {
    const ModelRecovery& r = rec[site_perm[ni]];
    out.push_back(r.active ? 1 : 0);
    if (!r.active) continue;  // inactive recoveries are all-equal
    out.push_back(static_cast<char>(r.new_session));
    out.push_back(remap_bits(r.pending));
    out.push_back(r.any_info ? 1 : 0);
    for (uint32_t nx = 0; nx < cfg.n_items; ++nx) {
      out.push_back(remap_bits(r.info_locks[item_perm[nx]]));
      out.push_back(remap_bits(r.touched[item_perm[nx]]));
      out.push_back(remap_bits(r.window_value[item_perm[nx]]));
    }
    for (uint32_t nj = 0; nj < cfg.n_sites; ++nj) {
      const PeerView& v = r.info_view[site_perm[nj]];
      out.push_back(static_cast<char>(v.session));
      out.push_back(v.up ? 1 : 0);
    }
  }
  for (uint32_t nx = 0; nx < cfg.n_items; ++nx) {
    const ModelPending& p = pend[item_perm[nx]];
    out.push_back(p.active ? 1 : 0);
    if (!p.active) continue;  // inactive slots are all-equal
    // The coordinator is a site index; encode it as a one-hot mask so the
    // same bit-remapping as the lock rows relabels it.
    out.push_back(remap_bits(static_cast<uint8_t>(1u << p.coord)));
    out.push_back(remap_bits(p.participants));
  }
  for (uint32_t nx = 0; nx < cfg.n_items; ++nx) {
    out.push_back(static_cast<char>(latest[item_perm[nx]]));
  }
  out.push_back(static_cast<char>(commits_used));
  out.push_back(static_cast<char>(crashes_used));
  out.push_back(static_cast<char>(refreshes_used));
  return out;
}

std::string ModelState::Dump(const AbstractConfig& cfg) const {
  std::string out;
  static constexpr const char* kModeName[] = {"up", "down", "recovering"};
  for (uint32_t i = 0; i < cfg.n_sites; ++i) {
    const ModelSite& s = site[i];
    out += StrFormat("site %d: %s view=[", i,
                     kModeName[static_cast<int>(s.mode)]);
    for (uint32_t j = 0; j < cfg.n_sites; ++j) {
      out += StrFormat("%s%d%s", j ? " " : "", s.view[j].session,
                       s.view[j].up ? "+" : "-");
    }
    out += "] locks=[";
    for (uint32_t x = 0; x < cfg.n_items; ++x) {
      out += StrFormat("%s%02x", x ? " " : "", s.locks[x]);
    }
    out += "] ver=[";
    for (uint32_t x = 0; x < cfg.n_items; ++x) {
      out += StrFormat("%s%d", x ? " " : "", s.ver[x]);
    }
    out += "]";
    if (rec[i].active) {
      out += StrFormat(" recovering(session=%d pending=%02x%s)",
                       rec[i].new_session, rec[i].pending,
                       rec[i].any_info ? " info" : "");
    }
    out += "\n";
  }
  for (uint32_t x = 0; x < cfg.n_items; ++x) {
    if (pend[x].active) {
      out += StrFormat("pending commit: item %d coord=%d participants=%02x\n",
                       x, pend[x].coord, pend[x].participants);
    }
  }
  out += "latest=[";
  for (uint32_t x = 0; x < cfg.n_items; ++x) {
    out += StrFormat("%s%d", x ? " " : "", latest[x]);
  }
  out += StrFormat("] budget commits=%d crashes=%d refreshes=%d\n",
                   commits_used, crashes_used, refreshes_used);
  return out;
}

std::string AbstractAction::ToString() const {
  switch (kind) {
    case Kind::kCommit:
      return StrFormat("commit(coord=%d item=%d)", site, item);
    case Kind::kDetectFailure:
      return StrFormat("detect_failure(by=%d dead=%d)", site, peer);
    case Kind::kCrash:
      return StrFormat("crash(site=%d)", site);
    case Kind::kBeginRecovery:
      return StrFormat("begin_recovery(site=%d)", site);
    case Kind::kRecoveryReply:
      return StrFormat("recovery_reply(recovering=%d responder=%d)", site,
                       peer);
    case Kind::kEndRecovery:
      return StrFormat("end_recovery(site=%d)", site);
    case Kind::kRefresh:
      return StrFormat("refresh(site=%d source=%d item=%d)", site, peer, item);
    case Kind::kBeginCommit:
      return StrFormat("begin_commit(coord=%d item=%d)", site, item);
    case Kind::kEndCommit:
      return StrFormat("end_commit(coord=%d item=%d)", site, item);
  }
  return "?";
}

const std::vector<ActionEffectVocabulary>& AbstractActionVocabulary() {
  // Handlers and effects follow src/replication/site.cc. The per-action
  // sets overlap because the implementation drains queued coordinator work
  // from any handler that completes a transaction — the union, not the
  // partition, is the contract the effect golden is checked against.
  using Kind = AbstractAction::Kind;
  static const std::vector<ActionEffectVocabulary> vocab = {
      {Kind::kCommit,
       "kCommit",
       {"kTxnRequest", "kPrepare", "kPrepareAck", "kCommit", "kCommitAck",
        "kAbort", "kTxnReply"},
       {"send:kPrepare", "send:kPrepareAck", "send:kCommit", "send:kCommitAck",
        "send:kAbort", "send:kTxnReply", "faillock.set", "faillock.clear",
        "session.merge", "lockmgr.acquire", "lockmgr.release"}},
      {Kind::kDetectFailure,
       "kDetectFailure",
       {"kFailSite", "kFailureAnnounce"},
       {"session.mark_down", "session.set", "send:kCopyCreate"}},
      {Kind::kCrash,
       "kCrash",
       {"kFailSite"},
       // Crash mutates site state by assignment, not through the mutation
       // APIs the analyzer tracks: a pure handler by construction.
       {}},
      {Kind::kBeginRecovery,
       "kBeginRecovery",
       {"kRecoverSite", "kRecoveryAnnounce"},
       {"send:kRecoveryAnnounce", "session.set", "session.merge"}},
      {Kind::kRecoveryReply,
       "kRecoveryReply",
       {"kRecoveryAnnounce", "kRecoveryInfo"},
       {"send:kRecoveryInfo", "session.set", "faillock.merge"}},
      {Kind::kEndRecovery,
       "kEndRecovery",
       {"kRecoveryInfo"},
       {"faillock.merge", "faillock.clear", "session.merge", "session.set"}},
      {Kind::kRefresh,
       "kRefresh",
       {"kCopyRequest", "kCopyReply", "kCopyCreate", "kClearFailLocks"},
       {"send:kCopyRequest", "send:kCopyReply", "send:kCopyCreate",
        "send:kClearFailLocks", "faillock.clear"}},
      {Kind::kBeginCommit,
       "kBeginCommit",
       {"kPrepare", "kPrepareAck"},
       {"send:kPrepare", "send:kPrepareAck", "lockmgr.acquire",
        "session.merge"}},
      {Kind::kEndCommit,
       "kEndCommit",
       {"kCommit", "kCommitAck", "kAbort"},
       {"send:kCommitAck", "send:kTxnReply", "faillock.set", "faillock.clear",
        "lockmgr.release"}},
  };
  return vocab;
}

std::string_view AbstractPropertyName(AbstractProperty p) {
  switch (p) {
    case AbstractProperty::kLockAgreement:
      return "lock-agreement";
    case AbstractProperty::kLockOwnerConsistency:
      return "lock-owner-consistency";
    case AbstractProperty::kSessionConsistency:
      return "session-consistency";
    case AbstractProperty::kSessionMonotonic:
      return "session-monotonic";
    case AbstractProperty::kFreshCopyCoverage:
      return "fresh-copy-coverage";
  }
  return "?";
}

std::vector<AbstractAction> EnabledActions(const AbstractConfig& cfg,
                                           const ModelState& s) {
  std::vector<AbstractAction> actions;
  using Kind = AbstractAction::Kind;
  const auto n = cfg.n_sites;
  const auto m = cfg.n_items;

  // kCommit: an up coordinator whose believed-up participants are all
  // reachable (a dead believed-up participant makes the 2PC time out and
  // abort instead — that path is kDetectFailure).
  if (s.commits_used < cfg.max_commits) {
    for (uint8_t c = 0; c < n; ++c) {
      if (s.site[c].mode != SiteMode::kUp) continue;
      bool all_reachable = true;
      for (uint8_t j = 0; j < n; ++j) {
        if (s.site[c].view[j].up && s.site[j].mode == SiteMode::kDown) {
          all_reachable = false;
          break;
        }
      }
      if (!all_reachable) continue;
      // Commit-time session-vector validation: a participant that knows
      // strictly newer membership news than the coordinator (a higher
      // session for any site) votes no, so the coordinator aborts, merges
      // and retries — the commit as planned never happens. Without this, a
      // coordinator that missed a recovery announce commits around the
      // recovering site while the announce-aware participants skip the
      // fail-lock, and the copy's staleness can become untracked.
      if (!cfg.skip_prepare_view_merge) {
        bool vetoed = false;
        for (uint8_t j = 0; j < n && !vetoed; ++j) {
          if (j == c || !s.site[c].view[j].up) continue;
          for (uint8_t k = 0; k < n; ++k) {
            if (s.site[j].view[k].session > s.site[c].view[k].session) {
              vetoed = true;
              break;
            }
          }
        }
        if (vetoed) continue;
      }
      for (uint8_t x = 0; x < m; ++x) {
        if (cfg.interleaved_commits) {
          // The item's exclusive write lock: a second commit on the same
          // item queues behind the pending one and is not a distinct
          // transition until the slot frees.
          if (!s.pend[x].active) {
            actions.push_back({Kind::kBeginCommit, c, 0, x});
          }
        } else {
          actions.push_back({Kind::kCommit, c, 0, x});
        }
      }
    }
  }

  // kEndCommit: a prepared commit applies. Every pinned participant is
  // still up by construction — a participant crash clears the slot
  // (presumed abort) before this action could fire.
  if (cfg.interleaved_commits) {
    for (uint8_t x = 0; x < m; ++x) {
      if (s.pend[x].active) {
        actions.push_back({Kind::kEndCommit, s.pend[x].coord, 0, x});
      }
    }
  }

  // kDetectFailure: any up site that still believes a dead site up.
  for (uint8_t c = 0; c < n; ++c) {
    if (s.site[c].mode != SiteMode::kUp) continue;
    for (uint8_t j = 0; j < n; ++j) {
      if (s.site[c].view[j].up && s.site[j].mode == SiteMode::kDown) {
        actions.push_back({Kind::kDetectFailure, c, j, 0});
      }
    }
  }

  // kCrash.
  if (s.crashes_used < cfg.max_crashes) {
    for (uint8_t i = 0; i < n; ++i) {
      if (s.site[i].mode != SiteMode::kDown) {
        actions.push_back({Kind::kCrash, i, 0, 0});
      }
    }
  }

  // kBeginRecovery.
  for (uint8_t i = 0; i < n; ++i) {
    if (s.site[i].mode == SiteMode::kDown) {
      actions.push_back({Kind::kBeginRecovery, i, 0, 0});
    }
  }

  // kRecoveryReply / kEndRecovery.
  for (uint8_t i = 0; i < n; ++i) {
    if (!s.rec[i].active) continue;
    if (s.rec[i].pending == 0) {
      actions.push_back({Kind::kEndRecovery, i, 0, 0});
      continue;
    }
    for (uint8_t r = 0; r < n; ++r) {
      if (((s.rec[i].pending >> r) & 1u) &&
          s.site[r].mode == SiteMode::kUp) {
        actions.push_back({Kind::kRecoveryReply, i, r, 0});
      }
    }
  }

  // kRefresh: copier transaction for an own fail-locked copy, from a
  // source the refresher believes clean and that believes itself clean.
  if (s.refreshes_used < cfg.max_refreshes) {
    for (uint8_t i = 0; i < n; ++i) {
      if (s.site[i].mode != SiteMode::kUp) continue;
      for (uint8_t x = 0; x < m; ++x) {
        if (!((s.site[i].locks[x] >> i) & 1u)) continue;
        // The copier needs the item's write lock at the refresher and the
        // clear broadcast conflicts with the pending commit's maintenance;
        // under 2PL the refresh queues until the commit resolves.
        if (s.pend[x].active) continue;
        for (uint8_t j = 0; j < n; ++j) {
          if (j == i || !s.site[i].view[j].up) continue;
          if ((s.site[i].locks[x] >> j) & 1u) continue;
          if (s.site[j].mode != SiteMode::kUp) continue;
          if ((s.site[j].locks[x] >> j) & 1u) continue;
          actions.push_back({Kind::kRefresh, i, j, x});
        }
      }
    }
  }
  return actions;
}

ModelState ApplyAction(const AbstractConfig& cfg, const ModelState& prev,
                       const AbstractAction& a) {
  ModelState s = prev;
  const auto n = cfg.n_sites;
  const uint8_t all = FullMask(n);
  using Kind = AbstractAction::Kind;

  // Journals a full-row fail-lock write at `j` if it is mid-recovery, so
  // completion can replay updates from the waiting-to-recover window.
  auto journal_row = [&](uint8_t j, uint8_t x, uint8_t row, uint8_t cols) {
    if (s.site[j].mode != SiteMode::kRecovering || !s.rec[j].active) return;
    s.rec[j].touched[x] |= cols;
    s.rec[j].window_value[x] =
        static_cast<uint8_t>((s.rec[j].window_value[x] & ~cols) |
                             (row & cols));
  };

  switch (a.kind) {
    case Kind::kCommit: {
      const uint8_t c = a.site;
      const uint8_t x = a.item;
      const uint8_t v = ++s.latest[x];
      uint8_t participants = 0;
      for (uint8_t j = 0; j < n; ++j) {
        if (prev.site[c].view[j].up) {
          participants |= static_cast<uint8_t>(1u << j);
        }
      }
      for (uint8_t j = 0; j < n; ++j) {
        if (!((participants >> j) & 1u)) continue;
        ModelSite& pj = s.site[j];
        if (j != c && !cfg.skip_prepare_view_merge) {
          // The prepare carries the coordinator's session vector; the
          // participant joins it before commit-time maintenance so both
          // maintain from the same knowledge.
          for (uint8_t k = 0; k < n; ++k) {
            pj.view[k] = Join(pj.view[k], prev.site[c].view[k]);
          }
        }
        pj.ver[x] = v;
        uint8_t row;
        if (cfg.skip_prepare_view_merge) {
          // Pre-fix semantics: each participant maintains from its own
          // (unmerged) view of who is down, so participants with skewed
          // views write divergent rows.
          row = 0;
          for (uint8_t k = 0; k < n; ++k) {
            if (!pj.view[k].up) row |= static_cast<uint8_t>(1u << k);
          }
        } else {
          // A fail-lock means "this copy missed this committed write", and
          // the exact set of copies that missed it is known at commit
          // time: the holders outside the participant set. Maintaining
          // from that set (not from each participant's believed-up view)
          // keeps every participant's row identical by construction.
          row = static_cast<uint8_t>(~participants) & all;
        }
        pj.locks[x] = row;
        journal_row(j, x, row, all);
      }
      ++s.commits_used;
      break;
    }
    case Kind::kBeginCommit: {
      const uint8_t c = a.site;
      const uint8_t x = a.item;
      uint8_t participants = 0;
      for (uint8_t j = 0; j < n; ++j) {
        if (prev.site[c].view[j].up) {
          participants |= static_cast<uint8_t>(1u << j);
        }
      }
      // Prepare: the coordinator's vector is merged at each participant
      // now (the prepare message carries it); the write and the fail-lock
      // maintenance land at kEndCommit.
      if (!cfg.skip_prepare_view_merge) {
        for (uint8_t j = 0; j < n; ++j) {
          if (!((participants >> j) & 1u) || j == c) continue;
          for (uint8_t k = 0; k < n; ++k) {
            s.site[j].view[k] = Join(s.site[j].view[k], prev.site[c].view[k]);
          }
        }
      }
      s.pend[x] = ModelPending{true, c, participants};
      ++s.commits_used;
      break;
    }
    case Kind::kEndCommit: {
      const uint8_t x = a.item;
      const uint8_t participants = prev.pend[x].participants;
      const uint8_t v = ++s.latest[x];
      for (uint8_t j = 0; j < n; ++j) {
        if (!((participants >> j) & 1u)) continue;
        ModelSite& pj = s.site[j];
        pj.ver[x] = v;
        uint8_t row;
        if (cfg.skip_prepare_view_merge) {
          row = 0;
          for (uint8_t k = 0; k < n; ++k) {
            if (!pj.view[k].up) row |= static_cast<uint8_t>(1u << k);
          }
        } else {
          // Maintenance from the set pinned at prepare time, not from the
          // believed-up view at apply time: the real engine commits with
          // the participant set the prepare round agreed on.
          row = static_cast<uint8_t>(~participants) & all;
        }
        pj.locks[x] = row;
        journal_row(j, x, row, all);
      }
      s.pend[x] = ModelPending{};
      break;
    }
    case Kind::kDetectFailure: {
      const uint8_t c = a.site;
      const uint8_t d = a.peer;
      const uint8_t sess = s.site[c].view[d].session;
      s.site[c].view[d].up = false;
      // Type-2 announcement to the detector's believed-up reachable peers
      // (a down receiver drops it; a recovering one processes it).
      for (uint8_t k = 0; k < n; ++k) {
        if (k == c || !s.site[c].view[k].up) continue;
        if (s.site[k].mode == SiteMode::kDown) continue;
        s.site[k].view[d] = Join(s.site[k].view[d], PeerView{sess, false});
      }
      break;
    }
    case Kind::kCrash: {
      const uint8_t i = a.site;
      s.site[i].mode = SiteMode::kDown;
      s.rec[i] = ModelRecovery{};  // any own recovery coordination is lost
      for (uint8_t m2 = 0; m2 < n; ++m2) {
        // A crashed responder will never reply; the recovering site's
        // timeout covers it.
        if (s.rec[m2].active) {
          s.rec[m2].pending &= static_cast<uint8_t>(~(1u << i));
        }
      }
      for (uint8_t x = 0; x < cfg.n_items; ++x) {
        // Presumed abort: a crash of any 2PC member kills the prepared
        // commit before anything applies (the survivors' timers resolve
        // it to abort).
        if (s.pend[x].active && ((s.pend[x].participants >> i) & 1u)) {
          s.pend[x] = ModelPending{};
        }
      }
      ++s.crashes_used;
      break;
    }
    case Kind::kBeginRecovery: {
      const uint8_t i = a.site;
      ModelRecovery& r = s.rec[i];
      r = ModelRecovery{};
      r.active = true;
      r.new_session = static_cast<uint8_t>(s.site[i].view[i].session + 1);
      // The bumped session is persisted at announce time, not at
      // completion: if this recovery is cut short by another crash, the
      // next incarnation must announce a strictly newer session, or peers
      // that recorded (this_session, down) via failure detection would
      // ignore the re-announce forever ("down wins" at equal sessions).
      s.site[i].view[i] = PeerView{r.new_session, false};
      for (uint8_t t = 0; t < n; ++t) {
        if (t != i && s.site[t].mode == SiteMode::kUp) {
          r.pending |= static_cast<uint8_t>(1u << t);
        }
      }
      s.site[i].mode = SiteMode::kRecovering;
      break;
    }
    case Kind::kRecoveryReply: {
      const uint8_t i = a.site;
      const uint8_t r = a.peer;
      ModelRecovery& rec = s.rec[i];
      // The responder learns the new session first, then snapshots.
      s.site[r].view[i] =
          Join(s.site[r].view[i], PeerView{rec.new_session, true});
      rec.pending &= static_cast<uint8_t>(~(1u << r));
      rec.any_info = true;
      for (uint8_t x = 0; x < cfg.n_items; ++x) {
        uint8_t served = s.site[r].locks[x];
        // Prospective maintenance (mirrors Site::RecoveryInfoRows): a
        // commit past its prepare at this responder will rewrite this row
        // to the complement of its pinned participant set when it applies
        // — possibly after recovery completes, when no snapshot can carry
        // the change — so the responder serves that future row: set bits
        // cover the recovering site's missed write, cleared bits keep the
        // union from resurrecting bits the commit clears everywhere else.
        // skip_prospective_faillocks reproduces the pre-fix reply.
        if (!cfg.skip_prospective_faillocks && s.pend[x].active &&
            ((s.pend[x].participants >> r) & 1u)) {
          const uint8_t p = s.pend[x].participants;
          served = static_cast<uint8_t>(~p) & FullMask(n);
          if ((p >> i) & 1u) {
            // Never prospectively clear the recovering site's OWN bit:
            // the served row becomes its table, and if the commit that
            // was going to write to it aborts, a cleared own bit would
            // let it serve a stale copy. If the commit does land there,
            // the site's own maintenance (or window journal) clears it.
            served |= s.site[r].locks[x] & static_cast<uint8_t>(1u << i);
          }
        }
        rec.info_locks[x] |= served;
      }
      for (uint8_t k = 0; k < n; ++k) {
        rec.info_view[k] = Join(rec.info_view[k], s.site[r].view[k]);
      }
      break;
    }
    case Kind::kEndRecovery: {
      const uint8_t i = a.site;
      ModelRecovery r = s.rec[i];
      ModelSite& me = s.site[i];
      for (uint8_t x = 0; x < cfg.n_items; ++x) {
        // With no info reply at all (every responder crashed first), the
        // site cannot know which of its copies missed updates and must
        // conservatively fail-lock all of them.
        uint8_t row = r.any_info
                          ? r.info_locks[x]
                          : static_cast<uint8_t>(me.locks[x] | (1u << i));
        if (!cfg.drop_recovery_window_updates) {
          row = static_cast<uint8_t>((row & ~r.touched[x]) |
                                     (r.window_value[x] & r.touched[x]));
        }
        me.locks[x] = row;
      }
      for (uint8_t k = 0; k < n; ++k) {
        me.view[k] = Join(me.view[k], r.info_view[k]);
      }
      me.view[i] = PeerView{r.new_session, true};
      me.mode = SiteMode::kUp;
      s.rec[i] = ModelRecovery{};
      break;
    }
    case Kind::kRefresh: {
      const uint8_t i = a.site;
      const uint8_t j = a.peer;
      const uint8_t x = a.item;
      s.site[i].ver[x] = s.site[j].ver[x];
      s.site[i].locks[x] &= static_cast<uint8_t>(~(1u << i));
      // The clear-fail-locks special transaction is idempotent
      // fire-and-forget, so it goes to every peer address, not only the
      // believed-up ones: a just-recovered site the refresher has not heard
      // about must still get the clear (narrow_clear_broadcast reproduces
      // the miss). A crashed site drops it; its stale table is replaced
      // wholesale by the info union at its next recovery anyway.
      for (uint8_t k = 0; k < n; ++k) {
        if (k == i) continue;
        if (cfg.narrow_clear_broadcast && !s.site[i].view[k].up) continue;
        if (s.site[k].mode == SiteMode::kDown) continue;
        s.site[k].locks[x] &= static_cast<uint8_t>(~(1u << i));
        journal_row(k, x, 0, static_cast<uint8_t>(1u << i));
      }
      ++s.refreshes_used;
      break;
    }
  }
  return s;
}

std::optional<std::pair<AbstractProperty, std::string>> CheckState(
    const AbstractConfig& cfg, const ModelState& s) {
  const auto n = cfg.n_sites;
  std::vector<uint8_t> ups;
  for (uint8_t i = 0; i < n; ++i) {
    if (s.site[i].mode == SiteMode::kUp) ups.push_back(i);
  }

  // Pointwise agreement between operational observers. NOT an invariant of
  // the protocol (see AbstractConfig::check_lock_agreement for the
  // refutation this checker produced); kept behind the flag so the
  // refutation stays reproducible.
  if (cfg.check_lock_agreement) {
    for (uint8_t x = 0; x < cfg.n_items; ++x) {
      for (uint8_t k = 0; k < n; ++k) {
        int saw = -1;
        uint8_t witness = 0;
        for (uint8_t i : ups) {
          if (i == k) continue;
          const int bit = (s.site[i].locks[x] >> k) & 1;
          if (saw < 0) {
            saw = bit;
            witness = i;
          } else if (bit != saw) {
            return std::make_pair(
                AbstractProperty::kLockAgreement,
                StrFormat("operational sites %d and %d disagree on fail-lock "
                          "(item=%d, site=%d): %d vs %d",
                          witness, i, x, k, saw, bit));
          }
        }
      }
    }
  }

  // A bit at an observer for an up, believed-up site must exist at the
  // site itself (recovery merged every operational table).
  for (uint8_t x = 0; x < cfg.n_items; ++x) {
    for (uint8_t i : ups) {
      for (uint8_t k = 0; k < n; ++k) {
        if (k == i || !((s.site[i].locks[x] >> k) & 1u)) continue;
        if (!s.site[i].view[k].up) continue;
        if (s.site[k].mode != SiteMode::kUp) continue;
        if (!((s.site[k].locks[x] >> k) & 1u)) {
          return std::make_pair(
              AbstractProperty::kLockOwnerConsistency,
              StrFormat("site %d holds fail-lock (item=%d, site=%d) and "
                        "believes %d up, but %d's own table is clear",
                        i, x, k, k, k));
        }
      }
    }
  }

  // No observer ahead of the subject's own session.
  for (uint8_t i : ups) {
    for (uint8_t j : ups) {
      if (i == j || !s.site[i].view[j].up) continue;
      if (s.site[i].view[j].session > s.site[j].view[j].session) {
        return std::make_pair(
            AbstractProperty::kSessionConsistency,
            StrFormat("site %d records session %d for up site %d, which "
                      "is at session %d",
                      i, s.site[i].view[j].session, j,
                      s.site[j].view[j].session));
      }
    }
  }

  // Read safety ("no committed read of a stale copy"): a read served at an
  // up site consults only that site's own fail-lock table, so a stale copy
  // whose own-table bit is clear would be handed to a committed read. This
  // is the property the whole fail-lock mechanism exists to maintain.
  for (uint8_t x = 0; x < cfg.n_items; ++x) {
    for (uint8_t k : ups) {
      if ((s.site[k].locks[x] >> k) & 1u) continue;
      if (s.site[k].ver[x] != s.latest[x]) {
        return std::make_pair(
            AbstractProperty::kFreshCopyCoverage,
            StrFormat("up site %d's copy of item %d is at version %d (latest "
                      "%d) but its own fail-lock bit is clear — a local read "
                      "would return the stale copy",
                      k, x, s.site[k].ver[x], s.latest[x]));
      }
    }
  }
  return std::nullopt;
}

namespace {

struct Node {
  ModelState state;
  int32_t parent;
  AbstractAction action;
  uint32_t depth;
};

std::vector<AbstractAction> PathTo(const std::vector<Node>& arena,
                                   int32_t idx) {
  std::vector<AbstractAction> path;
  for (int32_t at = idx; at > 0; at = arena[at].parent) {
    path.push_back(arena[at].action);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string Canonical(const AbstractConfig& cfg, const ModelState& state,
                      const std::vector<std::vector<uint8_t>>& site_perms,
                      const std::vector<std::vector<uint8_t>>& item_perms) {
  std::string best;
  for (const auto& sp : site_perms) {
    for (const auto& ip : item_perms) {
      std::string enc = state.Encode(cfg, sp.data(), ip.data());
      if (best.empty() || enc < best) best = std::move(enc);
    }
  }
  return best;
}

std::vector<std::vector<uint8_t>> AllPerms(uint32_t n) {
  std::vector<uint8_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<std::vector<uint8_t>> perms;
  do {
    perms.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return perms;
}

}  // namespace

AbstractResult ExploreAbstract(const AbstractConfig& cfg) {
  ValidateConfig(cfg);
  AbstractResult result;

  const std::vector<std::vector<uint8_t>> identity_site = {
      AllPerms(cfg.n_sites).front()};
  const std::vector<std::vector<uint8_t>> identity_item = {
      AllPerms(cfg.n_items).front()};
  const std::vector<std::vector<uint8_t>> site_perms =
      cfg.canonicalize ? AllPerms(cfg.n_sites) : identity_site;
  const std::vector<std::vector<uint8_t>> item_perms =
      cfg.canonicalize ? AllPerms(cfg.n_items) : identity_item;

  std::vector<Node> arena;
  arena.push_back(Node{InitialState(cfg), -1, {}, 0});
  std::unordered_set<std::string> visited;
  {
    std::string key = Canonical(cfg, arena[0].state, site_perms, item_perms);
    result.fingerprint ^= Mix(Fnv1a(key));
    visited.insert(std::move(key));
  }
  result.states_visited = 1;

  if (auto bad = CheckState(cfg, arena[0].state)) {
    result.violation = AbstractViolation{bad->first, bad->second, {},
                                         arena[0].state.Dump(cfg)};
    return result;
  }

  std::deque<int32_t> frontier = {0};
  while (!frontier.empty()) {
    const int32_t idx = frontier.front();
    frontier.pop_front();
    // Copy, not reference: arena reallocates as successors are appended.
    const ModelState state = arena[idx].state;
    const uint32_t depth = arena[idx].depth;
    const std::vector<AbstractAction> actions = EnabledActions(cfg, state);
    if (depth >= cfg.max_depth) {
      if (!actions.empty()) result.depth_bounded = true;
      continue;
    }
    ++result.states_expanded;

    for (const AbstractAction& action : actions) {
      ModelState succ = ApplyAction(cfg, state, action);
      ++result.transitions;

      // Per-edge monotonicity: no session number ever regresses.
      for (uint8_t i = 0; i < cfg.n_sites; ++i) {
        for (uint8_t j = 0; j < cfg.n_sites; ++j) {
          if (succ.site[i].view[j].session < state.site[i].view[j].session) {
            auto path = PathTo(arena, idx);
            path.push_back(action);
            result.violation = AbstractViolation{
                AbstractProperty::kSessionMonotonic,
                StrFormat("site %d's recorded session for %d regressed "
                          "%d -> %d across %s",
                          i, j, state.site[i].view[j].session,
                          succ.site[i].view[j].session,
                          action.ToString().c_str()),
                std::move(path), succ.Dump(cfg)};
            return result;
          }
        }
      }

      std::string key = Canonical(cfg, succ, site_perms, item_perms);
      if (!visited.insert(key).second) {
        ++result.symmetry_hits;
        continue;
      }
      result.fingerprint ^= Mix(Fnv1a(key));
      ++result.states_visited;
      const auto succ_idx = static_cast<int32_t>(arena.size());
      arena.push_back(Node{succ, idx, action, depth + 1});
      result.max_depth_reached = std::max(result.max_depth_reached, depth + 1);

      if (Quiescent(cfg, succ) && !result.violation) {
        if (auto bad = CheckState(cfg, succ)) {
          result.violation =
              AbstractViolation{bad->first, bad->second, PathTo(arena, succ_idx),
                                succ.Dump(cfg)};
          return result;
        }
      }
      if (cfg.max_states != 0 && result.states_visited >= cfg.max_states) {
        result.state_bounded = true;
        return result;
      }
      frontier.push_back(succ_idx);
    }
  }
  return result;
}

}  // namespace miniraid::check
