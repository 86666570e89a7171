// Experiment-as-a-service: the one in-process front door through which
// experiments are run — single submissions from many threads and whole
// campaigns as batches — serving memoized results (DESIGN.md §14).
//
// Because a conditioned package is a pure function of its campaign digest
// (core::campaign_digest), the service never simulates the same campaign
// twice:
//
//  * an LRU-bounded in-memory package cache answers repeats in
//    microseconds;
//  * an optional content-addressed disk repository (storage::Repository)
//    answers repeats across service instances and restarts;
//  * single-flight deduplication coalesces concurrent identical
//    submissions — N clients submitting the same campaign trigger exactly
//    one simulation, the other N-1 wait on its result;
//  * misses run on a bounded job queue over common::ThreadPool with
//    admission control: once `max_queue_depth` simulations are admitted
//    and unfinished, further misses are rejected cleanly (kState status)
//    instead of queueing without bound.
//
// Runs *within* an experiment (Submission::run_workers) ride the same pool
// as the simulations themselves, so the two levels of parallelism share
// one set of threads instead of multiplying (DESIGN.md §10).
//
// Cache hits are answer-invisible: a served package is byte-identical to
// what a fresh simulation would produce, because the digest covers every
// answer-relevant input (and the digest version covers the rest).  All
// cache behaviour is observable through cache.hit / cache.miss /
// cache.singleflight / queue.depth / queue.rejected metrics on the obs
// registry, and through stats() for obs-free builds.
//
// This service API is the staging ground for the roadmap's cross-machine
// daemon: Submission is the wire-protocol payload, the digest is the
// cache key a remote binary cache would be queried with.
#pragma once

#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/canonical.hpp"
#include "core/description.hpp"
#include "obs/obs.hpp"
#include "storage/package.hpp"
#include "storage/repository.hpp"

namespace excovery::core {

/// One campaign submission: the experiment description plus the
/// answer-relevant platform/master scope (both digested) and the
/// answer-invisible execution knobs (not digested).
struct Submission {
  ExperimentDescription description;
  CampaignScope scope;
  /// Worker threads for runs *within* this experiment (MasterOptions::
  /// run_workers).  Answer-invisible (DESIGN.md §10), hence not hashed.
  std::size_t run_workers = 1;

  std::string digest() const {
    return campaign_digest(description, scope);
  }
};

/// How a submission was answered.
enum class SubmitOutcome {
  kMemoryHit,  ///< served from the in-memory LRU cache
  kDiskHit,    ///< served from the content-addressed disk repository
  kCoalesced,  ///< waited on an identical in-flight simulation
  kSimulated,  ///< this submission triggered the simulation
  kRejected,   ///< admission control: queue at max_queue_depth
  kFailed,     ///< the simulation itself failed
};
std::string_view to_string(SubmitOutcome outcome) noexcept;

struct ServiceReply {
  SubmitOutcome outcome = SubmitOutcome::kFailed;
  std::string digest;
  /// The conditioned package; shared because hits alias one cached copy.
  /// Null when outcome is kRejected or kFailed.
  std::shared_ptr<const storage::ExperimentPackage> package;
  /// Error detail for kRejected / kFailed; ok otherwise.
  Status status;
};

/// Monotonic service counters (mirrored into the obs registry when a
/// context is attached; available without one).
struct ServiceStats {
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;       ///< submissions that required simulation
  std::uint64_t coalesced = 0;    ///< waiters deduplicated by single-flight
  std::uint64_t rejected = 0;     ///< refused by admission control
  std::uint64_t simulations = 0;  ///< simulations actually executed
  std::uint64_t failures = 0;     ///< simulations that returned an error
  std::size_t queue_depth = 0;    ///< admitted-but-unfinished simulations
};

class ExperimentService {
 public:
  struct Config {
    /// Simulation worker threads (0 = hardware concurrency).  Distinct
    /// submissions simulate in parallel up to this count.
    std::size_t workers = 0;
    /// Admission control: maximum admitted-but-unfinished simulations
    /// (running + queued).  Submissions missing the cache beyond this
    /// depth are rejected with a kState status.
    std::size_t max_queue_depth = 8;
    /// In-memory package cache entries (LRU eviction).  0 disables the
    /// memory cache (every repeat goes to the disk repository).
    std::size_t memory_cache_capacity = 16;
    /// Content-addressed disk store for results; null = memory only.  The
    /// repository must outlive the service; the service serialises all
    /// access to it (Repository itself is not thread-safe).
    storage::Repository* repository = nullptr;
    /// Metrics sink; null = stats() only.
    obs::ObsContext* obs = nullptr;
    /// Test hook, invoked on the worker thread immediately before a
    /// simulation starts.  Lets tests hold simulations in flight to pin
    /// single-flight and admission-control behaviour deterministically.
    std::function<void(const std::string& digest)> before_simulate;
  };

  explicit ExperimentService(Config config);
  ~ExperimentService() = default;  // the pool drains in-flight simulations

  ExperimentService(const ExperimentService&) = delete;
  ExperimentService& operator=(const ExperimentService&) = delete;

  /// Submit and wait for the result.  Safe to call from many threads.
  ServiceReply submit(const Submission& submission);

  /// Submit a batch (a campaign) and wait for every result; replies come
  /// back in input order.  Each submission is answered exactly as by
  /// submit(), so a duplicate inside the batch simulates once and is
  /// reported kCoalesced (or a cache hit, if the first copy finished
  /// already).  A batch larger than the free queue depth waits on its own
  /// earliest pending reply before enqueueing more, so without other
  /// clients no submission of the batch is rejected.
  std::vector<ServiceReply> submit_all(std::vector<Submission> submissions);

  /// Submit without waiting.  Rejections and cache hits resolve the
  /// future immediately; misses resolve when the simulation finishes.
  /// Note: unlike submit(), a coalesced waiter's future carries the
  /// initiator's kSimulated outcome (one shared reply for all waiters).
  std::shared_future<ServiceReply> submit_async(const Submission& submission);

  ServiceStats stats() const;
  std::size_t memory_cache_size() const;

 private:
  struct Flight {
    std::promise<ServiceReply> promise;
    std::shared_future<ServiceReply> future;
  };
  using CacheEntry =
      std::pair<std::string, std::shared_ptr<const storage::ExperimentPackage>>;

  /// The reply's future plus whether the submission attached to an
  /// existing flight (needed to report kCoalesced to waiters).
  using Enqueued = std::pair<std::shared_future<ServiceReply>, bool>;

  Enqueued enqueue(const Submission& submission);
  /// Waits on an enqueued reply; a waiter that attached to another
  /// submission's flight reports kCoalesced instead of kSimulated.
  static ServiceReply await(const Enqueued& enqueued);
  bool queue_full() const;
  void run_flight(const std::string& digest, Submission submission,
                  const std::shared_ptr<Flight>& flight);
  Result<storage::ExperimentPackage> simulate(const Submission& submission);

  // LRU cache; callers hold mutex_.
  std::shared_ptr<const storage::ExperimentPackage> cache_get(
      const std::string& digest);
  void cache_put(const std::string& digest,
                 std::shared_ptr<const storage::ExperimentPackage> package);
  void record_queue_depth();

  Config config_;
  struct {
    obs::MetricId hit, miss, singleflight, rejected, depth;
  } metric_ids_;

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Flight>> flights_;
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> lru_index_;
  std::size_t pending_ = 0;  ///< admitted-but-unfinished simulations
  ServiceStats stats_;

  /// Declared last so it is destroyed first: the pool drains outstanding
  /// simulations while the service state above is still alive.
  ThreadPool pool_;
};

}  // namespace excovery::core
