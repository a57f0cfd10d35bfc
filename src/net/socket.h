#ifndef LEOPARD_NET_SOCKET_H_
#define LEOPARD_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace leopard {
namespace net {

/// Thin RAII wrapper over a connected POSIX TCP socket. Move-only; the
/// destructor closes the descriptor. Error handling follows the library
/// convention: no exceptions, every fallible call returns Status.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends all `n` bytes, retrying short writes and EINTR. SIGPIPE is
  /// suppressed; a peer reset surfaces as a Status instead.
  Status SendAll(const void* data, size_t n);

  /// Receives up to `n` bytes. Returns the byte count (0 = orderly EOF);
  /// kBusy when a receive timeout configured via SetRecvTimeoutMs expires
  /// with no data.
  StatusOr<size_t> Recv(void* buf, size_t n);

  /// Non-blocking receive: kBusy when no data is currently available.
  StatusOr<size_t> RecvNonblocking(void* buf, size_t n);

  Status SetRecvTimeoutMs(uint64_t ms);
  Status SetSendTimeoutMs(uint64_t ms);

  /// shutdown(2) both directions — unblocks a thread parked in Recv on
  /// this socket from another thread. Safe on an already-dead socket.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
};

/// Splits "host:port". Returns false on a missing/invalid port.
bool ParseHostPort(const std::string& spec, std::string& host, uint16_t& port);

/// Connects to host:port (numeric IP or name). Blocking.
StatusOr<Socket> TcpConnect(const std::string& host, uint16_t port);

/// A listening TCP socket. Accept() blocks until a connection arrives; to
/// stop an accept loop, another thread calls Wake() and joins the accepting
/// thread before Close().
class Listener {
 public:
  Listener() = default;
  Listener(Listener&&) noexcept;
  Listener& operator=(Listener&&) noexcept;
  ~Listener();

  /// Binds and listens on `port` (0 = kernel-assigned ephemeral port, read
  /// it back via port()). Listens on all interfaces.
  static StatusOr<Listener> Listen(uint16_t port, int backlog = 16);

  uint16_t port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  /// Accepts one connection, blocking with no timeout. Fails once Wake()
  /// has been called (or on a fatal listener error).
  StatusOr<Socket> Accept();

  /// shutdown(2) on the listening socket: a thread blocked in Accept()
  /// returns at once and every later Accept() fails. The descriptor stays
  /// open (its number cannot be reused) until Close(), which must wait
  /// until no thread is left in Accept(). Callable from any thread;
  /// idempotent; a no-op after Close().
  void Wake();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace net
}  // namespace leopard

#endif  // LEOPARD_NET_SOCKET_H_
