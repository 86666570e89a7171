// Level-4 storage: a repository of experiment packages.
//
// §IV-F: "The fourth level describes the integration of multiple
// experiments into a single repository to facilitate comparison and
// analysis covering multiple experiments.  To date, ExCovery does not
// realize this level."  It is realised here (the paper marks it as future
// work): a directory of level-3 packages with cross-experiment query
// helpers.
//
// One key space (DESIGN.md §14): packages are content-addressed by the
// SHA-256 digest of the canonical campaign submission
// (core::campaign_digest), laid out Nix-style as
// <dir>/cas/<first-2-hex>/<digest>.excovery.  Equal digest means
// byte-identical package, so storing an existing digest is a no-op success.
// The files present are the index: open() scans cas/ and keeps no CAS index
// file.  Human-chosen names are aliases onto digests, kept in one
// tab-separated <dir>/names.txt; re-aliasing a name re-points it.
//
// Persistence is crash-safe: package files and names.txt are written to a
// temporary sibling and atomically renamed into place, and open() skips
// corrupt names.txt lines and aliases whose package file is missing
// instead of failing.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "storage/package.hpp"

namespace excovery::storage {

class Repository {
 public:
  /// Open (or create) a repository rooted at a directory.
  static Result<Repository> open(const std::string& directory);

  const std::string& directory() const noexcept { return directory_; }

  // ---- content-addressed packages ----------------------------------------
  /// Store a package under its content digest (lower-case hex, as
  /// core::campaign_digest produces).  Idempotent: storing a digest that is
  /// already present succeeds without rewriting the file.
  Status store(const std::string& digest, const ExperimentPackage& package);
  /// Load the package stored under a digest.
  Result<ExperimentPackage> fetch(const std::string& digest) const;
  bool contains(const std::string& digest) const;
  /// All stored digests, sorted.
  std::vector<std::string> digests() const;
  std::size_t size() const noexcept { return digests_.size(); }
  /// Repository-relative package path ("cas/ab/<digest>.excovery") — the
  /// on-disk layout contract, exposed for tooling.
  static std::string cas_relative_path(const std::string& digest);

  // ---- names -------------------------------------------------------------
  /// Point `name` at a stored digest, replacing any previous target.  A
  /// name is any non-empty string without tabs or line breaks.
  Status alias(const std::string& name, const std::string& digest);
  /// The digest a name points at.
  Result<std::string> resolve(const std::string& name) const;
  /// All names, sorted.
  std::vector<std::string> names() const;

  /// Cross-experiment query: every event of a given type across all named
  /// experiments, tagged with the name.
  struct CrossEvent {
    std::string experiment_id;
    EventRow event;
  };
  Result<std::vector<CrossEvent>> events_of_type(
      const std::string& event_type) const;

  /// Per-name summary (name, runs, events, packets) for comparison tooling.
  struct Summary {
    std::string experiment_id;
    std::string name;
    std::size_t runs = 0;
    std::size_t events = 0;
    std::size_t packets = 0;
  };
  Result<std::vector<Summary>> summaries() const;

 private:
  explicit Repository(std::string directory)
      : directory_(std::move(directory)) {}

  Status save_names() const;

  std::string directory_;
  std::set<std::string> digests_;
  std::map<std::string, std::string> names_;  // name -> digest
};

}  // namespace excovery::storage
