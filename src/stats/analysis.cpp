#include "stats/analysis.hpp"

#include <algorithm>

#include "net/packet.hpp"
#include "sd/message.hpp"
#include "sd/model.hpp"

namespace excovery::stats {

namespace {

/// The Events rows that shape a discovery; every other event type is
/// dropped before any ordering work.
enum class Step : std::uint8_t { kSearch, kAdd, kTimeout };

/// One relevant Events row: its CommonTime, its row index and its role.
struct TimedRow {
  double time;
  std::uint32_t row;
  Step step;
};

/// Order by CommonTime, ties by row index.  Each run's bucket keeps
/// insertion order, so this is exactly the stable order by time.
void sort_by_time(TimedRow* first, TimedRow* last) {
  std::sort(first, last, [](const TimedRow& a, const TimedRow& b) {
    return a.time < b.time || (!(b.time < a.time) && a.row < b.row);
  });
}

}  // namespace

Result<std::vector<RunDiscovery>> discoveries(
    const storage::ExperimentPackage& package) {
  // Column order of the Events table (see storage/package.cpp).
  constexpr std::size_t kRunId = 0, kNodeId = 1, kCommonTime = 2,
                        kEventType = 3, kParameter = 4;
  const storage::Table* events = package.database().table("Events");
  const std::vector<std::int64_t> runs = package.run_ids();

  // Pass 1: keep the relevant rows of runs listed in RunInfos, tagged with
  // their run's slot, in insertion order.  Consecutive rows mostly share a
  // run, so the slot lookup is cached.
  struct Kept {
    std::uint32_t slot;
    TimedRow row;
  };
  std::vector<Kept> kept;
  std::vector<std::uint32_t> bucket_end(runs.size() + 1, 0);
  constexpr std::uint32_t kNoRun = 0xFFFFFFFFu;
  std::int64_t cached_run = 0;
  std::uint32_t cached_slot = kNoRun;
  bool cached = false;
  for (std::size_t r = 0; r < events->row_count(); ++r) {
    const storage::RowView row = events->row(r);
    const std::string_view type = row.as_string(kEventType);
    Step step;
    if (type == sd::events::kStartSearch) {
      step = Step::kSearch;
    } else if (type == sd::events::kServiceAdd) {
      step = Step::kAdd;
    } else if (type == "wait_timeout") {
      step = Step::kTimeout;
    } else {
      continue;
    }
    const std::int64_t run_id = row.as_int(kRunId);
    if (!cached || run_id != cached_run) {
      auto it = std::lower_bound(runs.begin(), runs.end(), run_id);
      cached = true;
      cached_run = run_id;
      cached_slot = it != runs.end() && *it == run_id
                        ? static_cast<std::uint32_t>(it - runs.begin())
                        : kNoRun;
    }
    if (cached_slot == kNoRun) continue;
    kept.push_back({cached_slot, {row.as_double(kCommonTime),
                                  static_cast<std::uint32_t>(r), step}});
    ++bucket_end[cached_slot + 1];
  }

  // Pass 2: bucket by run with a counting sort, so each bucket keeps
  // insertion order.
  for (std::size_t i = 1; i < bucket_end.size(); ++i) {
    bucket_end[i] += bucket_end[i - 1];
  }
  std::vector<TimedRow> order(kept.size());
  {
    std::vector<std::uint32_t> next(bucket_end.begin(), bucket_end.end() - 1);
    for (const Kept& entry : kept) order[next[entry.slot]++] = entry.row;
  }

  // Pass 3, per run: order the bucket by CommonTime, then build one
  // RunDiscovery per node that started a search, emitted in searcher-name
  // order.
  std::vector<RunDiscovery> out;
  std::vector<RunDiscovery> searchers;
  auto find_searcher = [&](std::string_view node) {
    return std::find_if(
        searchers.begin(), searchers.end(),
        [&](const RunDiscovery& d) { return d.searcher == node; });
  };
  for (std::size_t slot = 0; slot < runs.size(); ++slot) {
    TimedRow* first = order.data() + bucket_end[slot];
    TimedRow* last = order.data() + bucket_end[slot + 1];
    sort_by_time(first, last);
    for (const TimedRow* it = first; it < last; ++it) {
      const storage::RowView row = events->row(it->row);
      const std::string_view node = row.as_string(kNodeId);
      auto searcher = find_searcher(node);
      switch (it->step) {
        case Step::kSearch:
          if (searcher != searchers.end()) break;
          searchers.emplace_back();
          searchers.back().run_id = runs[slot];
          searchers.back().searcher = node;
          searchers.back().search_start = it->time;
          break;
        case Step::kAdd: {
          if (searcher == searchers.end()) break;  // add before search
          const std::string_view provider =
              row.is_null(kParameter) ? std::string_view{}
                                      : row.as_string(kParameter);
          // First add per provider wins.
          searcher->latencies.try_emplace(std::string(provider),
                                          it->time - searcher->search_start);
          break;
        }
        case Step::kTimeout:
          if (searcher != searchers.end()) searcher->timed_out = true;
          break;
      }
    }
    std::sort(searchers.begin(), searchers.end(),
              [](const RunDiscovery& a, const RunDiscovery& b) {
                return a.searcher < b.searcher;
              });
    for (RunDiscovery& discovery : searchers) {
      out.push_back(std::move(discovery));
    }
    searchers.clear();
  }
  return out;
}

Proportion responsiveness(const std::vector<RunDiscovery>& runs,
                          double deadline_s, std::size_t required) {
  std::size_t successes = 0;
  for (const RunDiscovery& run : runs) {
    std::size_t within = 0;
    for (const auto& [provider, latency] : run.latencies) {
      if (latency <= deadline_s) ++within;
    }
    if (within >= required) ++successes;
  }
  return wilson(successes, runs.size());
}

std::vector<double> discovery_latencies(const std::vector<RunDiscovery>& runs) {
  std::vector<double> out;
  for (const RunDiscovery& run : runs) {
    for (const auto& [provider, latency] : run.latencies) {
      out.push_back(latency);
    }
  }
  return out;
}

std::vector<double> first_latencies(const std::vector<RunDiscovery>& runs) {
  std::vector<double> out;
  for (const RunDiscovery& run : runs) {
    double best = -1.0;
    for (const auto& [provider, latency] : run.latencies) {
      if (best < 0 || latency < best) best = latency;
    }
    if (best >= 0) out.push_back(best);
  }
  return out;
}

Result<Proportion> responsiveness(const storage::ExperimentPackage& package,
                                  double deadline_s, std::size_t required) {
  return discoveries(package).map([&](std::vector<RunDiscovery> runs) {
    return responsiveness(runs, deadline_s, required);
  });
}

Result<std::vector<double>> discovery_latencies(
    const storage::ExperimentPackage& package) {
  return discoveries(package).map(
      [](std::vector<RunDiscovery> runs) { return discovery_latencies(runs); });
}

Result<std::vector<double>> first_latencies(
    const storage::ExperimentPackage& package) {
  return discoveries(package).map(
      [](std::vector<RunDiscovery> runs) { return first_latencies(runs); });
}

Result<std::vector<PacketStats>> packet_stats(
    const storage::ExperimentPackage& package) {
  std::vector<PacketStats> out;
  for (std::int64_t run_id : package.run_ids()) {
    EXC_ASSIGN_OR_RETURN(std::vector<storage::PacketRow> packets,
                         package.packets(run_id));
    PacketStats stats;
    stats.run_id = run_id;
    for (const storage::PacketRow& row : packets) {
      ++stats.captured;
      Result<net::WireImage> image = net::capture_from_wire(row.data);
      if (!image.ok()) continue;
      stats.bytes += static_cast<double>(image.value().packet.wire_size());
      if (image.value().direction == net::Direction::kTransmit) {
        ++stats.transmitted;
      } else {
        ++stats.received;
      }
      if (sd::decode(image.value().packet.payload).ok()) ++stats.sd_messages;
    }
    out.push_back(stats);
  }
  return out;
}

Result<std::vector<RequestResponsePair>> pair_requests(
    const storage::ExperimentPackage& package) {
  std::vector<RequestResponsePair> out;
  for (std::int64_t run_id : package.run_ids()) {
    EXC_ASSIGN_OR_RETURN(std::vector<storage::PacketRow> packets,
                         package.packets(run_id));
    // Matching is two-pass and deliberately independent of timestamp
    // order: with uncorrected clock offsets a response can carry an
    // *earlier* common time than its query, and causal_violations() must
    // be able to observe exactly that.
    struct Decoded {
      const storage::PacketRow* row;
      net::WireImage image;
      sd::SdMessage message;
    };
    std::vector<Decoded> decoded;
    decoded.reserve(packets.size());
    for (const storage::PacketRow& row : packets) {
      Result<net::WireImage> image = net::capture_from_wire(row.data);
      if (!image.ok()) continue;
      Result<sd::SdMessage> message =
          sd::decode(image.value().packet.payload);
      if (!message.ok()) continue;
      decoded.push_back(Decoded{&row, std::move(image).value(),
                                std::move(message).value()});
    }

    // Pass 1: queries transmitted, keyed by (requester, txn id).
    std::map<std::pair<std::string, std::uint32_t>, RequestResponsePair>
        pending;
    for (const Decoded& entry : decoded) {
      bool is_request =
          entry.message.kind == sd::MessageKind::kQuery ||
          entry.message.kind == sd::MessageKind::kDirectedQuery ||
          entry.message.kind == sd::MessageKind::kScmQuery;
      if (!is_request ||
          entry.image.direction != net::Direction::kTransmit) {
        continue;
      }
      RequestResponsePair pair;
      pair.run_id = run_id;
      pair.txn_id = entry.message.txn_id;
      pair.requester = entry.row->node_id;
      pair.request_time = entry.row->common_time;
      pending.try_emplace({entry.row->node_id, entry.message.txn_id}, pair);
    }
    // Pass 2: the first response (by recorded time) received back at the
    // requester wins.
    for (const Decoded& entry : decoded) {
      bool is_response =
          entry.message.kind == sd::MessageKind::kResponse ||
          entry.message.kind == sd::MessageKind::kDirectedReply ||
          entry.message.kind == sd::MessageKind::kScmAdvert;
      if (!is_response ||
          entry.image.direction != net::Direction::kReceive) {
        continue;
      }
      auto it = pending.find({entry.row->node_id, entry.message.txn_id});
      if (it == pending.end()) continue;  // unsolicited or not ours
      it->second.responder = entry.message.sender_name;
      it->second.response_time = entry.row->common_time;
      out.push_back(it->second);
      pending.erase(it);
    }
  }
  // Deterministic order.
  std::sort(out.begin(), out.end(),
            [](const RequestResponsePair& a, const RequestResponsePair& b) {
              if (a.run_id != b.run_id) return a.run_id < b.run_id;
              return a.request_time < b.request_time;
            });
  return out;
}

Result<RouteStats> route_stats(const storage::ExperimentPackage& package) {
  RouteStats stats;
  double total_hops = 0;
  for (std::int64_t run_id : package.run_ids()) {
    EXC_ASSIGN_OR_RETURN(std::vector<storage::PacketRow> packets,
                         package.packets(run_id));
    for (const storage::PacketRow& row : packets) {
      Result<net::WireImage> image = net::capture_from_wire(row.data);
      if (!image.ok()) continue;
      if (image.value().direction != net::Direction::kReceive) continue;
      if (image.value().packet.route.empty()) continue;
      int hops = static_cast<int>(image.value().packet.route.size()) - 1;
      ++stats.receptions;
      total_hops += hops;
      stats.max_hops = std::max(stats.max_hops, hops);
      stats.distribution[hops]++;
    }
  }
  if (stats.receptions > 0) {
    stats.mean_hops = total_hops / static_cast<double>(stats.receptions);
  }
  return stats;
}

Result<std::size_t> causal_violations(
    const storage::ExperimentPackage& package) {
  EXC_ASSIGN_OR_RETURN(std::vector<RequestResponsePair> pairs,
                       pair_requests(package));
  std::size_t violations = 0;
  for (const RequestResponsePair& pair : pairs) {
    if (pair.response_time < pair.request_time) ++violations;
  }
  return violations;
}

Result<std::size_t> propagation_violations(
    const storage::ExperimentPackage& package) {
  std::size_t violations = 0;
  for (std::int64_t run_id : package.run_ids()) {
    EXC_ASSIGN_OR_RETURN(std::vector<storage::PacketRow> packets,
                         package.packets(run_id));
    // First transmit time per packet uid (sender's conditioned clock).
    struct TxInfo {
      double time;
      std::string node;
    };
    std::map<std::uint64_t, TxInfo> tx_info;
    struct RxInfo {
      std::uint64_t uid;
      double time;
      std::string node;
    };
    std::vector<RxInfo> rx_events;
    for (const storage::PacketRow& row : packets) {
      Result<net::WireImage> image = net::capture_from_wire(row.data);
      if (!image.ok()) continue;
      if (image.value().direction == net::Direction::kTransmit) {
        auto [it, inserted] = tx_info.try_emplace(
            image.value().packet.uid, TxInfo{row.common_time, row.node_id});
        if (!inserted && row.common_time < it->second.time) {
          it->second = TxInfo{row.common_time, row.node_id};
        }
      } else {
        rx_events.push_back(
            RxInfo{image.value().packet.uid, row.common_time, row.node_id});
      }
    }
    for (const RxInfo& rx : rx_events) {
      auto it = tx_info.find(rx.uid);
      if (it == tx_info.end()) continue;  // sender not captured
      // Same-node loopback delivery shares one clock and carries no
      // propagation; only cross-node reception is checked.
      if (rx.node == it->second.node) continue;
      if (rx.time < it->second.time) ++violations;
    }
  }
  return violations;
}

}  // namespace excovery::stats
