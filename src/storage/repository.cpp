#include "storage/repository.hpp"

#include <filesystem>
#include <fstream>

namespace excovery::storage {

namespace fs = std::filesystem;

namespace {

/// Names live in a tab-separated, line-oriented file.
bool valid_name(const std::string& name) {
  return !name.empty() && name.find_first_of("\t\r\n") == std::string::npos;
}

bool hex_digest(const std::string& digest) {
  if (digest.size() < 2) return false;
  for (char c : digest) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return true;
}

/// Write `contents` to `path` crash-safely: a temporary sibling file is
/// written in full, then atomically renamed over the destination.  A crash
/// mid-write leaves at worst a stale .tmp sibling, never a truncated
/// destination; re-storing over an existing file replaces it in place.
Status atomic_write(const fs::path& path, const std::string& contents) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return err_io("cannot write '" + tmp.string() + "'");
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    if (!out.flush()) return err_io("cannot flush '" + tmp.string() + "'");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return err_io("cannot rename into '" + path.string() + "'");
  }
  return {};
}

Status atomic_save_package(const ExperimentPackage& package,
                           const fs::path& path) {
  const Bytes bytes = package.database().serialize();
  return atomic_write(
      path, std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()));
}

}  // namespace

Result<Repository> Repository::open(const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return err_io("cannot create repository directory '" + directory +
                  "': " + ec.message());
  }
  Repository repo(directory);

  // The package files present are the CAS index:
  // cas/<2 hex>/<digest>.excovery.
  for (const auto& shard :
       fs::directory_iterator(fs::path(directory) / "cas", ec)) {
    const std::string prefix = shard.path().filename().string();
    for (const auto& entry : fs::directory_iterator(shard.path(), ec)) {
      const fs::path& path = entry.path();
      std::string digest = path.stem().string();
      if (path.extension() == ".excovery" && hex_digest(digest) &&
          digest.compare(0, 2, prefix) == 0) {
        repo.digests_.insert(std::move(digest));
      }
    }
  }

  // Names: "<name>\t<digest>" per line.  A line damaged by a crash, or an
  // alias whose package file is gone, is skipped rather than failing open().
  std::ifstream names(fs::path(directory) / "names.txt");
  for (std::string line; std::getline(names, line);) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    std::string name = line.substr(0, tab);
    std::string digest = line.substr(tab + 1);
    if (valid_name(name) && repo.contains(digest)) {
      repo.names_.insert_or_assign(std::move(name), std::move(digest));
    }
  }
  return repo;
}

std::string Repository::cas_relative_path(const std::string& digest) {
  return "cas/" + digest.substr(0, 2) + "/" + digest + ".excovery";
}

Status Repository::save_names() const {
  std::string out;
  for (const auto& [name, digest] : names_) {
    out.append(name).append("\t").append(digest).append("\n");
  }
  return atomic_write(fs::path(directory_) / "names.txt", out);
}

Status Repository::store(const std::string& digest,
                         const ExperimentPackage& package) {
  if (!hex_digest(digest)) {
    return err_invalid("content digest must be lower-case hex: '" + digest +
                       "'");
  }
  if (contains(digest)) return {};  // content-addressed: idempotent
  const fs::path path = fs::path(directory_) / cas_relative_path(digest);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) {
    return err_io("cannot create CAS directory '" +
                  path.parent_path().string() + "': " + ec.message());
  }
  EXC_TRY(atomic_save_package(package, path));
  digests_.insert(digest);
  return {};
}

Result<ExperimentPackage> Repository::fetch(const std::string& digest) const {
  if (!contains(digest)) {
    return err_not_found("no package with digest '" + digest +
                         "' in repository");
  }
  return ExperimentPackage::load(
      (fs::path(directory_) / cas_relative_path(digest)).string());
}

bool Repository::contains(const std::string& digest) const {
  return digests_.count(digest) != 0;
}

std::vector<std::string> Repository::digests() const {
  return {digests_.begin(), digests_.end()};
}

Status Repository::alias(const std::string& name, const std::string& digest) {
  if (!valid_name(name)) {
    return err_invalid("name must be non-empty, without tabs or line breaks");
  }
  if (!contains(digest)) {
    return err_not_found("no package with digest '" + digest +
                         "' in repository");
  }
  names_.insert_or_assign(name, digest);
  return save_names();
}

Result<std::string> Repository::resolve(const std::string& name) const {
  auto it = names_.find(name);
  if (it == names_.end()) {
    return err_not_found("no experiment '" + name + "' in repository");
  }
  return it->second;
}

std::vector<std::string> Repository::names() const {
  std::vector<std::string> out;
  out.reserve(names_.size());
  for (const auto& [name, digest] : names_) out.push_back(name);
  return out;
}

Result<std::vector<Repository::CrossEvent>> Repository::events_of_type(
    const std::string& event_type) const {
  std::vector<CrossEvent> out;
  for (const auto& [name, digest] : names_) {
    EXC_ASSIGN_OR_RETURN(ExperimentPackage package, fetch(digest));
    EXC_ASSIGN_OR_RETURN(std::vector<EventRow> events, package.all_events());
    for (EventRow& event : events) {
      if (event.event_type == event_type) {
        out.push_back(CrossEvent{name, std::move(event)});
      }
    }
  }
  return out;
}

Result<std::vector<Repository::Summary>> Repository::summaries() const {
  std::vector<Summary> out;
  for (const auto& [name, digest] : names_) {
    EXC_ASSIGN_OR_RETURN(ExperimentPackage package, fetch(digest));
    Summary summary;
    summary.experiment_id = name;
    summary.name = package.experiment_name().value_or("");
    summary.runs = package.run_ids().size();
    summary.events = package.event_count();
    summary.packets = package.packet_count();
    out.push_back(std::move(summary));
  }
  return out;
}

}  // namespace excovery::storage
