#include "core/service.hpp"

#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/master.hpp"
#include "core/scenario.hpp"

namespace excovery::core {

namespace {

std::shared_future<ServiceReply> ready_reply(ServiceReply reply) {
  std::promise<ServiceReply> promise;
  promise.set_value(std::move(reply));
  return promise.get_future().share();
}

}  // namespace

std::string_view to_string(SubmitOutcome outcome) noexcept {
  switch (outcome) {
    case SubmitOutcome::kMemoryHit: return "memory-hit";
    case SubmitOutcome::kDiskHit: return "disk-hit";
    case SubmitOutcome::kCoalesced: return "coalesced";
    case SubmitOutcome::kSimulated: return "simulated";
    case SubmitOutcome::kRejected: return "rejected";
    case SubmitOutcome::kFailed: return "failed";
  }
  return "?";
}

ExperimentService::ExperimentService(Config config)
    : config_(std::move(config)), pool_(config_.workers) {
  if (config_.obs != nullptr) {
    // Wall domain: cache behaviour depends on submission timing and must
    // never be exported into result packages (DESIGN.md §11).
    obs::MetricsRegistry& registry = config_.obs->registry();
    metric_ids_.hit =
        registry.counter("cache.hit", obs::MetricDomain::kWall);
    metric_ids_.miss =
        registry.counter("cache.miss", obs::MetricDomain::kWall);
    metric_ids_.singleflight =
        registry.counter("cache.singleflight", obs::MetricDomain::kWall);
    metric_ids_.rejected =
        registry.counter("queue.rejected", obs::MetricDomain::kWall);
    metric_ids_.depth =
        registry.gauge("queue.depth", obs::MetricDomain::kWall);
  }
}

void ExperimentService::record_queue_depth() {
  stats_.queue_depth = pending_;
  if (config_.obs != nullptr) {
    config_.obs->set_gauge(metric_ids_.depth,
                           static_cast<std::int64_t>(pending_));
  }
}

std::shared_ptr<const storage::ExperimentPackage>
ExperimentService::cache_get(const std::string& digest) {
  auto it = lru_index_.find(digest);
  if (it == lru_index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
  return it->second->second;
}

void ExperimentService::cache_put(
    const std::string& digest,
    std::shared_ptr<const storage::ExperimentPackage> package) {
  if (config_.memory_cache_capacity == 0) return;
  auto it = lru_index_.find(digest);
  if (it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = std::move(package);
    return;
  }
  lru_.emplace_front(digest, std::move(package));
  lru_index_.emplace(digest, lru_.begin());
  while (lru_.size() > config_.memory_cache_capacity) {
    lru_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

ExperimentService::Enqueued ExperimentService::enqueue(
    const Submission& submission) {
  std::string digest = submission.digest();
  std::lock_guard lock(mutex_);

  // Single flight: an identical submission is already simulating — wait on
  // its result instead of starting another.
  if (auto it = flights_.find(digest); it != flights_.end()) {
    ++stats_.coalesced;
    if (config_.obs != nullptr) config_.obs->add(metric_ids_.singleflight);
    return {it->second->future, true};
  }

  ServiceReply reply;
  reply.digest = digest;

  if (auto package = cache_get(digest)) {
    ++stats_.memory_hits;
    if (config_.obs != nullptr) config_.obs->add(metric_ids_.hit);
    reply.outcome = SubmitOutcome::kMemoryHit;
    reply.package = std::move(package);
    return {ready_reply(std::move(reply)), false};
  }

  if (config_.repository != nullptr) {
    // One CAS lookup: fetch directly and branch on the error code
    // (kNotFound is the ordinary cold-cache case, anything else is a
    // damaged entry) instead of probing contains() first.
    Result<storage::ExperimentPackage> loaded =
        config_.repository->fetch(digest);
    if (loaded.ok()) {
      auto package = std::make_shared<storage::ExperimentPackage>(
          std::move(loaded).value());
      cache_put(digest, package);
      ++stats_.disk_hits;
      if (config_.obs != nullptr) config_.obs->add(metric_ids_.hit);
      reply.outcome = SubmitOutcome::kDiskHit;
      reply.package = std::move(package);
      return {ready_reply(std::move(reply)), false};
    }
    if (loaded.error().code() != ErrorCode::kNotFound) {
      // A corrupt CAS entry degrades to a miss: re-simulate rather than
      // fail.
      EXC_LOG_WARN("service", "CAS entry " << digest << " unreadable ("
                                           << loaded.error().to_string()
                                           << "), re-simulating");
    }
  }

  // Admission control before counting the miss: a rejected submission was
  // never admitted to the queue.
  if (pending_ >= config_.max_queue_depth) {
    ++stats_.rejected;
    if (config_.obs != nullptr) config_.obs->add(metric_ids_.rejected);
    reply.outcome = SubmitOutcome::kRejected;
    reply.status = err_state(strings::format(
        "submission queue full (%zu simulations admitted, depth limit %zu)",
        pending_, config_.max_queue_depth));
    return {ready_reply(std::move(reply)), false};
  }

  ++stats_.misses;
  if (config_.obs != nullptr) config_.obs->add(metric_ids_.miss);
  ++pending_;
  record_queue_depth();

  auto flight = std::make_shared<Flight>();
  flight->future = flight->promise.get_future().share();
  flights_.emplace(digest, flight);
  std::shared_future<ServiceReply> future = flight->future;
  pool_.post([this, digest = std::move(digest), submission,
              flight = std::move(flight)]() mutable {
    run_flight(digest, std::move(submission), flight);
  });
  return {std::move(future), false};
}

Result<storage::ExperimentPackage> ExperimentService::simulate(
    const Submission& submission) {
  EXC_ASSIGN_OR_RETURN(
      net::Topology topology,
      scenario::topology_for(submission.description,
                             submission.scope.topology));
  SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = submission.scope.platform_seed;
  EXC_ASSIGN_OR_RETURN(
      std::unique_ptr<SimPlatform> platform,
      SimPlatform::create(submission.description, std::move(config)));

  MasterOptions options;
  options.max_attempts_per_run = submission.scope.max_attempts_per_run;
  options.run_watchdog = submission.scope.run_watchdog;
  options.settle = submission.scope.settle;
  options.run_workers = submission.run_workers;
  // Nesting rule (DESIGN.md §10): run workers ride the service pool, so
  // total threads stay bounded by Config::workers however many submissions
  // request run parallelism.
  options.run_pool = &pool_;
  ExperiMaster master(submission.description, *platform, std::move(options));
  return master.execute();
}

void ExperimentService::run_flight(const std::string& digest,
                                   Submission submission,
                                   const std::shared_ptr<Flight>& flight) {
  if (config_.before_simulate) config_.before_simulate(digest);
  Result<storage::ExperimentPackage> result = simulate(submission);

  ServiceReply reply;
  reply.digest = digest;
  {
    std::lock_guard lock(mutex_);
    if (result.ok()) {
      std::shared_ptr<const storage::ExperimentPackage> package =
          std::make_shared<storage::ExperimentPackage>(
              std::move(result).value());
      if (config_.repository != nullptr) {
        Status stored = config_.repository->store(digest, *package);
        if (!stored.ok()) {
          // A full or read-only disk must not fail the submission: the
          // fresh package is still correct, only future disk hits are lost.
          EXC_LOG_WARN("service", "cannot persist "
                                      << digest << ": "
                                      << stored.error().to_string());
        }
      }
      cache_put(digest, package);
      ++stats_.simulations;
      reply.outcome = SubmitOutcome::kSimulated;
      reply.package = std::move(package);
    } else {
      ++stats_.failures;
      reply.outcome = SubmitOutcome::kFailed;
      reply.status = std::move(result).error();
    }
    // Remove the flight only after the cache holds the package, so a new
    // identical submission arriving now hits instead of re-simulating.
    flights_.erase(digest);
    --pending_;
    record_queue_depth();
  }
  flight->promise.set_value(std::move(reply));
}

ServiceReply ExperimentService::await(const Enqueued& enqueued) {
  ServiceReply reply = enqueued.first.get();
  if (enqueued.second && reply.outcome == SubmitOutcome::kSimulated) {
    reply.outcome = SubmitOutcome::kCoalesced;
  }
  return reply;
}

bool ExperimentService::queue_full() const {
  std::lock_guard lock(mutex_);
  return pending_ >= config_.max_queue_depth;
}

ServiceReply ExperimentService::submit(const Submission& submission) {
  return await(enqueue(submission));
}

std::vector<ServiceReply> ExperimentService::submit_all(
    std::vector<Submission> submissions) {
  std::vector<Enqueued> enqueued;
  enqueued.reserve(submissions.size());
  std::size_t oldest = 0;  // earliest reply of this batch not yet awaited
  for (const Submission& submission : submissions) {
    // A flight finishes (and frees its queue slot) before its reply is
    // published, so once an awaited reply is ready the slot is free.
    while (oldest < enqueued.size() && queue_full()) {
      enqueued[oldest++].first.wait();
    }
    enqueued.push_back(enqueue(submission));
  }
  std::vector<ServiceReply> replies;
  replies.reserve(enqueued.size());
  for (const auto& pending : enqueued) replies.push_back(await(pending));
  return replies;
}

std::shared_future<ServiceReply> ExperimentService::submit_async(
    const Submission& submission) {
  return enqueue(submission).first;
}

ServiceStats ExperimentService::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t ExperimentService::memory_cache_size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

}  // namespace excovery::core
