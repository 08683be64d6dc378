#include "store/replication.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "store/codec.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gvex {

ReplicationSource::ReplicationSource(std::string dir,
                                     std::function<uint64_t()> epoch_provider)
    : dir_(std::move(dir)), epoch_provider_(std::move(epoch_provider)) {}

bool ReplicationSource::ValidFileName(const std::string& name) {
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos || name == "." || name == "..") {
    return false;
  }
  if (name == WalFileName()) return true;
  if (ParseSnapshotFileName(name).ok()) return true;
  if (ParseDeltaFileName(name).ok()) return true;
  return false;
}

Result<ReplManifest> ReplicationSource::Manifest() const {
  ReplManifest m;
  if (epoch_provider_) m.epoch = epoch_provider_();

  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    return Status::IOError(StrFormat("cannot open store directory %s: %s",
                                     dir_.c_str(), std::strerror(errno)));
  }
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == WalFileName() || !ValidFileName(name)) continue;
    auto bytes = FileSize(dir_ + "/" + name);
    // A file pruned between readdir and stat simply drops out.
    if (!bytes.ok()) continue;
    m.files.push_back(ReplFileInfo{name, bytes.value()});
  }
  ::closedir(d);
  std::sort(m.files.begin(), m.files.end(),
            [](const ReplFileInfo& a, const ReplFileInfo& b) {
              return a.name < b.name;
            });

  const std::string wal_path = dir_ + "/" + WalFileName();
  auto wal_bytes = FileSize(wal_path);
  if (wal_bytes.ok()) {
    m.wal_bytes = wal_bytes.value();
    auto start = ReadWalStart(wal_path);
    // A WAL torn below its header reports no records; replication treats
    // it as an empty log (the applier resyncs when it grows a real one).
    if (start.ok()) {
      m.wal_has_records = start.value().has_records;
      m.wal_first_epoch = start.value().first_epoch;
    }
  }
  return m;
}

Result<std::string> ReplicationSource::Fetch(const std::string& name,
                                             uint64_t offset,
                                             uint64_t max_len) const {
  if (!ValidFileName(name)) {
    return Status::InvalidArgument("not a replicable file: " + name);
  }
  return ReadFileRange(dir_ + "/" + name, offset, max_len);
}

Result<uint32_t> ReplicationSource::PrefixCrc(const std::string& name,
                                              uint64_t bytes) const {
  if (!ValidFileName(name)) {
    return Status::InvalidArgument("not a replicable file: " + name);
  }
  // Incremental CRC via the one-shot helper over a rolling buffer would
  // change the polynomial chaining; read the prefix whole instead (prefix
  // checks run on generation changes and divergence probes, not per poll).
  GVEX_ASSIGN_OR_RETURN(const std::string buf,
                        ReadFileRange(dir_ + "/" + name, 0, bytes));
  if (buf.size() != bytes) {
    return Status::InvalidArgument(
        StrFormat("%s holds fewer than %llu bytes", name.c_str(),
                  static_cast<unsigned long long>(bytes)));
  }
  return Crc32(buf);
}

}  // namespace gvex
