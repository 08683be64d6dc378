// Socket helpers shared by the TCP server and every TCP client in net/ and
// tools/: one checked way to make a fd non-blocking and one checked way to
// open a client connection.

#ifndef GVEX_NET_SOCKET_H_
#define GVEX_NET_SOCKET_H_

#include <string>

#include "util/status.h"

namespace gvex {

/// Adds O_NONBLOCK to `fd`'s file status flags. Internal on a failed
/// F_GETFL or F_SETFL, leaving the fd as it was.
Status SetNonBlocking(int fd);

/// A blocking TCP connection to numeric IPv4 `host`:`port` with
/// TCP_NODELAY set; the caller owns (and closes) the returned fd.
/// InvalidArgument for a host that is not a numeric IPv4 address, IOError
/// when the socket cannot be created, connected or configured.
Result<int> ConnectTcp(const std::string& host, int port);

}  // namespace gvex

#endif  // GVEX_NET_SOCKET_H_
