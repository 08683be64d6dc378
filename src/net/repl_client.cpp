#include "net/repl_client.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>
#include <vector>

#include "net/socket.h"
#include "util/string_util.h"

namespace gvex {

TcpReplicationEndpoint::TcpReplicationEndpoint(std::string host, int port)
    : host_(std::move(host)), port_(port) {}

TcpReplicationEndpoint::~TcpReplicationEndpoint() { Close(); }

void TcpReplicationEndpoint::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

Status TcpReplicationEndpoint::Send(const std::string& request) {
  if (fd_ < 0) {
    Result<int> fd = ConnectTcp(host_, port_);
    if (!fd.ok()) return fd.status();
    fd_ = fd.value();
    buffer_.clear();
  }
  const char* data = request.data();
  size_t remaining = request.size();
  while (remaining > 0) {
    const ssize_t n = ::send(fd_, data, remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status err =
          Status::IOError(StrFormat("send: %s", strerror(errno)));
      Close();
      return err;
    }
    data += n;
    remaining -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> TcpReplicationEndpoint::ReadLine() {
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status err =
          Status::IOError(StrFormat("recv: %s", strerror(errno)));
      Close();
      return err;
    }
    if (n == 0) {
      Close();
      return Status::IOError("primary closed the replication connection");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<ReplManifest> TcpReplicationEndpoint::Manifest() {
  GVEX_RETURN_NOT_OK(Send("replicate state\n"));
  GVEX_ASSIGN_OR_RETURN(const std::string head_line, ReadLine());
  const std::vector<std::string> head = SplitWhitespace(head_line);
  // ok replstate epoch <e> wal_bytes <b> wal_has <0|1> wal_first <f>
  // files <n>
  ReplManifest manifest;
  int wal_has = 0;
  if (!head.empty() && head[0] == "err") {
    Close();
    return Status::IOError("replicate state refused: " + head_line);
  }
  uint64_t files_count = 0;
  if (head.size() != 12 || head[0] != "ok" || head[1] != "replstate" ||
      head[2] != "epoch" || !ParseUint64(head[3], &manifest.epoch) ||
      head[4] != "wal_bytes" || !ParseUint64(head[5], &manifest.wal_bytes) ||
      head[6] != "wal_has" || !ParseInt(head[7], &wal_has) ||
      head[8] != "wal_first" ||
      !ParseUint64(head[9], &manifest.wal_first_epoch) ||
      head[10] != "files" || !ParseUint64(head[11], &files_count)) {
    Close();
    return Status::IOError("malformed replstate line: " + head_line);
  }
  manifest.wal_has_records = wal_has != 0;
  const size_t num_files = static_cast<size_t>(files_count);
  manifest.files.reserve(num_files);
  for (size_t i = 0; i < num_files; ++i) {
    GVEX_ASSIGN_OR_RETURN(const std::string file_line, ReadLine());
    const std::vector<std::string> parts = SplitWhitespace(file_line);
    ReplFileInfo info;
    if (parts.size() != 3 || parts[0] != "file" ||
        !ParseUint64(parts[2], &info.bytes)) {
      Close();
      return Status::IOError("malformed replstate file line: " + file_line);
    }
    info.name = parts[1];
    manifest.files.push_back(std::move(info));
  }
  return manifest;
}

Result<std::string> TcpReplicationEndpoint::Fetch(const std::string& name,
                                                  uint64_t offset,
                                                  uint64_t max_len) {
  GVEX_RETURN_NOT_OK(
      Send(StrFormat("replicate fetch %s %llu %llu\n", name.c_str(),
                     static_cast<unsigned long long>(offset),
                     static_cast<unsigned long long>(max_len))));
  GVEX_ASSIGN_OR_RETURN(const std::string line, ReadLine());
  const std::vector<std::string> parts = SplitWhitespace(line);
  if (parts.size() >= 1 && parts[0] == "err") {
    Close();
    return Status::IOError("replicate fetch refused: " + line);
  }
  uint64_t nbytes = 0;
  if (parts.size() < 3 || parts.size() > 4 || parts[0] != "ok" ||
      parts[1] != "replchunk" || !ParseUint64(parts[2], &nbytes)) {
    Close();
    return Status::IOError("malformed replchunk line: " + line);
  }
  if (nbytes == 0) return std::string();
  std::string bytes;
  if (parts.size() != 4 || !HexDecode(parts[3], &bytes) ||
      bytes.size() != nbytes) {
    Close();
    return Status::IOError("malformed replchunk payload: " + line);
  }
  return bytes;
}

Result<uint32_t> TcpReplicationEndpoint::PrefixCrc(const std::string& name,
                                                   uint64_t bytes) {
  GVEX_RETURN_NOT_OK(
      Send(StrFormat("replicate crc %s %llu\n", name.c_str(),
                     static_cast<unsigned long long>(bytes))));
  GVEX_ASSIGN_OR_RETURN(const std::string line, ReadLine());
  const std::vector<std::string> parts = SplitWhitespace(line);
  if (parts.size() >= 1 && parts[0] == "err") {
    Close();
    return Status::IOError("replicate crc refused: " + line);
  }
  if (parts.size() != 3 || parts[0] != "ok" || parts[1] != "replcrc") {
    Close();
    return Status::IOError("malformed replcrc line: " + line);
  }
  char* end = nullptr;
  const unsigned long value = ::strtoul(parts[2].c_str(), &end, 16);
  if (end != parts[2].c_str() + parts[2].size() || value > 0xFFFFFFFFul) {
    Close();
    return Status::IOError("malformed replcrc value: " + line);
  }
  return static_cast<uint32_t>(value);
}

}  // namespace gvex
