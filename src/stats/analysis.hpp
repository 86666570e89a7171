// Extraction and analysis of event- and packet-based metrics from level-3
// packages (§VI: "A set of functions exist for extraction and analysis of
// event and packet based metrics").
//
// The headline metric is responsiveness: "the probability that a number of
// SMs is found within a deadline, as required by the application calling
// SD" — the property the paper's case-study experiments ([25], [26])
// evaluate.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "stats/metrics.hpp"
#include "storage/package.hpp"

namespace excovery::stats {

/// The discovery outcome of one run from one searching node's perspective.
struct RunDiscovery {
  std::int64_t run_id = 0;
  std::string searcher;                     ///< SU node
  double search_start = 0.0;                ///< sd_start_search common time
  /// Provider identifier -> discovery latency t_R in seconds (time from
  /// search start to the sd_service_add event carrying that identifier).
  std::map<std::string, double> latencies;
  bool timed_out = false;                   ///< a wait_timeout followed
};

/// Extract per-run discovery outcomes for every searching node, ordered by
/// run id, then by searcher name.  One scan of the Events columns: rows of
/// runs absent from RunInfos are skipped, each run's rows are taken in
/// CommonTime order (ties keep insertion order), the first sd_start_search
/// per node opens its search, an sd_service_add before that is ignored, and
/// the first add per provider wins.
Result<std::vector<RunDiscovery>> discoveries(
    const storage::ExperimentPackage& package);

// The curve functions work on the output of one discoveries() call, so a
// curve over many deadlines scans the package once.  The package overloads
// are shorthands for discoveries() followed by the vector form.

/// Responsiveness: fraction of runs in which the searcher discovered at
/// least `required` providers within `deadline_s` of starting its search.
/// One trial per (run, searcher).  Wilson 95% bounds included.
Proportion responsiveness(const std::vector<RunDiscovery>& runs,
                          double deadline_s, std::size_t required);
Result<Proportion> responsiveness(const storage::ExperimentPackage& package,
                                  double deadline_s, std::size_t required);

/// All individual discovery latencies (seconds), for distribution plots.
std::vector<double> discovery_latencies(const std::vector<RunDiscovery>& runs);
Result<std::vector<double>> discovery_latencies(
    const storage::ExperimentPackage& package);

/// First-discovery latency per (run, searcher) — the paper's t_R for the
/// one-shot process of Fig. 11.
std::vector<double> first_latencies(const std::vector<RunDiscovery>& runs);
Result<std::vector<double>> first_latencies(
    const storage::ExperimentPackage& package);

// ---- packet-level metrics ---------------------------------------------------

/// Per-run packet statistics derived from captures.
struct PacketStats {
  std::int64_t run_id = 0;
  std::size_t captured = 0;       ///< capture entries (tx + rx)
  std::size_t transmitted = 0;
  std::size_t received = 0;
  std::size_t sd_messages = 0;    ///< captures whose payload decodes as SD
  double bytes = 0.0;
};
Result<std::vector<PacketStats>> packet_stats(
    const storage::ExperimentPackage& package);

/// A matched SD request/response pair (via the transaction id the paper's
/// Avahi modification introduces, §VI).
struct RequestResponsePair {
  std::int64_t run_id = 0;
  std::uint32_t txn_id = 0;
  std::string requester;   ///< node that captured the query transmit
  std::string responder;   ///< node that sent the response
  double request_time = 0.0;
  double response_time = 0.0;  ///< first response arrival at the requester
  double rtt() const { return response_time - request_time; }
};

/// Pair queries with their responses at the requesting node.  Enables
/// "analysis of response times not only on SD operation level but on the
/// level of individual SD request and response packets".
Result<std::vector<RequestResponsePair>> pair_requests(
    const storage::ExperimentPackage& package);

/// Verify the causal sanity of the conditioned timeline: for every matched
/// pair, the response must not precede the request.  Returns the number of
/// causal violations (should be 0 after conditioning; large clock offsets
/// without conditioning produce violations — tests rely on this contrast).
Result<std::size_t> causal_violations(
    const storage::ExperimentPackage& package);

/// Packet-tracking analysis (§IV-A3 requires the platform to track packet
/// routes hop by hop): distribution of route lengths (hops traversed) over
/// all captured receptions, useful to verify multi-hop behaviour and to
/// derive "statistical connection parameters" (§IV-B2).
struct RouteStats {
  std::size_t receptions = 0;
  double mean_hops = 0.0;
  int max_hops = 0;
  /// hops -> count
  std::map<int, std::size_t> distribution;
};
Result<RouteStats> route_stats(const storage::ExperimentPackage& package);

/// Cross-node causal check built on the packet tracker's unique ids: a
/// packet must never be received (receiver clock) before it was sent
/// (sender clock).  Unlike causal_violations this compares timestamps from
/// *different* clocks, so it directly measures whether conditioning
/// established a valid global time line (§IV-B3: "avoiding causal
/// conflicts due to local clocks deviating").
Result<std::size_t> propagation_violations(
    const storage::ExperimentPackage& package);

}  // namespace excovery::stats
