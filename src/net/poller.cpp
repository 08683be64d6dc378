#include "net/poller.h"

#include <errno.h>
#include <string.h>

#if defined(__linux__)
#include <sys/epoll.h>
#include <unistd.h>
#else
#include <algorithm>
#include <poll.h>
#endif

namespace gvex {

#if defined(__linux__)

Poller::Poller() { epoll_fd_ = ::epoll_create1(0); }

Poller::~Poller() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool Poller::ok() const { return epoll_fd_ >= 0; }

namespace {
uint32_t EpollMask(bool want_read, bool want_write) {
  uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN;
  if (want_write) mask |= EPOLLOUT;
  return mask;
}
}  // namespace

Status Poller::Add(int fd, bool want_read, bool want_write) {
  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl add: ") +
                            ::strerror(errno));
  }
  return Status::OK();
}

Status Poller::Modify(int fd, bool want_read, bool want_write) {
  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl mod: ") +
                            ::strerror(errno));
  }
  return Status::OK();
}

void Poller::Remove(int fd) {
  // Kernels before 2.6.9 require a non-null event; pass one for safety.
  struct epoll_event ev;
  ::memset(&ev, 0, sizeof(ev));
  // Unchecked: callers close `fd` right after, and closing an fd with no
  // other duplicates drops it from every epoll set anyway.
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
}

int Poller::Wait(int timeout_ms, std::vector<Event>* events) {
  events->clear();
  struct epoll_event ready[128];
  int n;
  do {
    n = ::epoll_wait(epoll_fd_, ready, 128, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return -1;
  events->reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event ev;
    ev.fd = ready[i].data.fd;
    ev.readable = (ready[i].events & EPOLLIN) != 0;
    ev.writable = (ready[i].events & EPOLLOUT) != 0;
    ev.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(ev);
  }
  return n;
}

#else  // poll(2) fallback

Poller::Poller() = default;
Poller::~Poller() = default;
bool Poller::ok() const { return true; }

Status Poller::Add(int fd, bool want_read, bool want_write) {
  interests_.push_back(Interest{fd, want_read, want_write});
  return Status::OK();
}

Status Poller::Modify(int fd, bool want_read, bool want_write) {
  for (Interest& in : interests_) {
    if (in.fd == fd) {
      in.want_read = want_read;
      in.want_write = want_write;
      return Status::OK();
    }
  }
  return Status::NotFound("fd not registered");
}

void Poller::Remove(int fd) {
  interests_.erase(
      std::remove_if(interests_.begin(), interests_.end(),
                     [fd](const Interest& in) { return in.fd == fd; }),
      interests_.end());
}

int Poller::Wait(int timeout_ms, std::vector<Event>* events) {
  events->clear();
  std::vector<struct pollfd> fds;
  fds.reserve(interests_.size());
  for (const Interest& in : interests_) {
    struct pollfd p;
    p.fd = in.fd;
    p.events = static_cast<short>((in.want_read ? POLLIN : 0) |
                                  (in.want_write ? POLLOUT : 0));
    p.revents = 0;
    fds.push_back(p);
  }
  int n;
  do {
    n = ::poll(fds.data(), fds.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return -1;
  for (const struct pollfd& p : fds) {
    if (p.revents == 0) continue;
    Event ev;
    ev.fd = p.fd;
    ev.readable = (p.revents & POLLIN) != 0;
    ev.writable = (p.revents & POLLOUT) != 0;
    ev.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    events->push_back(ev);
  }
  return static_cast<int>(events->size());
}

#endif

}  // namespace gvex
