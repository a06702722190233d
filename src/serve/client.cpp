#include "serve/client.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace easched::serve {
namespace {

common::Status errno_status(const std::string& what) {
  return common::Status::internal(what + ": " + std::strerror(errno));
}

}  // namespace

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      tenant_(std::move(other.tenant_)),
      last_request_id_(other.last_request_id_),
      decoder_(std::move(other.decoder_)),
      solves_(std::move(other.solves_)),
      sweeps_(std::move(other.sweeps_)),
      stats_(std::move(other.stats_)),
      metrics_(std::move(other.metrics_)),
      errors_(std::move(other.errors_)),
      connection_error_(std::move(other.connection_error_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
    tenant_ = std::move(other.tenant_);
    last_request_id_ = other.last_request_id_;
    decoder_ = std::move(other.decoder_);
    solves_ = std::move(other.solves_);
    sweeps_ = std::move(other.sweeps_);
    stats_ = std::move(other.stats_);
    metrics_ = std::move(other.metrics_);
    errors_ = std::move(other.errors_);
    connection_error_ = std::move(other.connection_error_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

common::Result<Client> Client::connect(const std::string& host, int port,
                                       const std::string& tenant) {
  if (tenant.empty()) return common::Status::invalid("tenant id must be non-empty");

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &resolved) != 0 ||
      resolved == nullptr) {
    return common::Status::invalid("cannot resolve " + host);
  }
  const int fd = ::socket(resolved->ai_family, resolved->ai_socktype, 0);
  if (fd < 0) {
    ::freeaddrinfo(resolved);
    return errno_status("socket");
  }
  const int rc = ::connect(fd, resolved->ai_addr, resolved->ai_addrlen);
  ::freeaddrinfo(resolved);
  if (rc < 0) {
    ::close(fd);
    return errno_status("connect " + host + ":" + port_str);
  }
  // Requests are small and latency-bound; Nagle would hold a pipelined
  // request back until the daemon acknowledged the previous one.
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    const common::Status status = errno_status("setsockopt(TCP_NODELAY)");
    ::close(fd);
    return status;
  }

  Client client;
  client.fd_ = fd;
  client.tenant_ = tenant;

  Hello hello;
  hello.tenant = tenant;
  if (auto status = client.send_frame(MsgType::kHello, hello.encode());
      !status.is_ok()) {
    return status;
  }
  // The ack is the very first frame the daemon sends; block for it.
  for (;;) {
    Frame frame;
    const auto result = client.decoder_.next(frame);
    if (result == FrameDecoder::Result::kFrame) {
      if (frame.type != MsgType::kHelloAck) {
        return common::Status::internal("daemon answered the handshake with type " +
                                        std::to_string(static_cast<unsigned>(frame.type)));
      }
      auto ack = HelloAck::decode(frame.payload);
      if (!ack.is_ok()) return ack.status();
      if (!ack.value().status.is_ok()) return ack.value().status;
      if (ack.value().version != kProtocolVersion) {
        return common::Status::unsupported(
            "daemon speaks protocol version " + std::to_string(ack.value().version) +
            ", this client speaks " + std::to_string(kProtocolVersion));
      }
      return client;
    }
    if (result != FrameDecoder::Result::kNeedMore) {
      return common::Status::internal("corrupt handshake frame from daemon");
    }
    if (auto status = client.recv_into_decoder(); !status.is_ok()) return status;
  }
}

common::Status Client::recv_into_decoder() {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      return common::Status::ok();
    }
    if (n == 0) {
      connection_error_ = common::Status::internal("daemon closed the connection");
      return connection_error_;
    }
    if (errno == EINTR) continue;
    connection_error_ = errno_status("recv");
    return connection_error_;
  }
}

common::Status Client::send_frame(MsgType type, const std::string& payload) {
  if (!connection_error_.is_ok()) return connection_error_;
  const std::string frame = encode_frame(type, payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    connection_error_ = errno_status("send");
    return connection_error_;
  }
  return common::Status::ok();
}

common::Status Client::send(const SolveRequest& request) {
  return send_frame(MsgType::kSolveRequest, request.encode());
}

common::Status Client::send(const SweepRequest& request) {
  return send_frame(MsgType::kSweepRequest, request.encode());
}

common::Status Client::send(const StatRequest& request) {
  return send_frame(MsgType::kStatRequest, request.encode());
}

common::Status Client::send(const MetricsRequest& request) {
  return send_frame(MsgType::kMetricsRequest, request.encode());
}

common::Status Client::pump(int timeout_ms) {
  if (!connection_error_.is_ok()) return connection_error_;

  if (timeout_ms >= 0) {
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno != EINTR) {
      connection_error_ = errno_status("poll");
      return connection_error_;
    }
    if (rc <= 0) return common::Status::ok();  // nothing arrived in time
  }

  if (auto status = recv_into_decoder(); !status.is_ok()) return status;

  Frame frame;
  for (;;) {
    const auto result = decoder_.next(frame);
    if (result == FrameDecoder::Result::kNeedMore) return common::Status::ok();
    if (result != FrameDecoder::Result::kFrame) {
      connection_error_ =
          common::Status::internal("corrupt frame from daemon; dropping connection");
      return connection_error_;
    }
    switch (frame.type) {
      case MsgType::kSolveResponse: {
        auto decoded = SolveResponse::decode(frame.payload);
        if (!decoded.is_ok()) {
          connection_error_ = decoded.status();
          return connection_error_;
        }
        solves_[decoded.value().request_id] = std::move(decoded).take();
        break;
      }
      case MsgType::kSweepResponse: {
        auto decoded = SweepResponse::decode(frame.payload);
        if (!decoded.is_ok()) {
          connection_error_ = decoded.status();
          return connection_error_;
        }
        sweeps_[decoded.value().request_id] = std::move(decoded).take();
        break;
      }
      case MsgType::kStatResponse: {
        auto decoded = StatResponse::decode(frame.payload);
        if (!decoded.is_ok()) {
          connection_error_ = decoded.status();
          return connection_error_;
        }
        stats_[decoded.value().request_id] = std::move(decoded).take();
        break;
      }
      case MsgType::kMetricsResponse: {
        auto decoded = MetricsResponse::decode(frame.payload);
        if (!decoded.is_ok()) {
          connection_error_ = decoded.status();
          return connection_error_;
        }
        metrics_[decoded.value().request_id] = std::move(decoded).take();
        break;
      }
      case MsgType::kError: {
        auto decoded = ErrorResponse::decode(frame.payload);
        if (!decoded.is_ok()) {
          connection_error_ = decoded.status();
          return connection_error_;
        }
        // id 0 = the daemon could not attribute the failure to a request
        // (e.g. our frame's CRC failed in transit) — fail the connection
        // so no wait_*() hangs forever on a request that will never be
        // answered.
        if (decoded.value().request_id == 0) {
          connection_error_ = decoded.value().status;
          return connection_error_;
        }
        errors_[decoded.value().request_id] = decoded.value().status;
        break;
      }
      default:
        connection_error_ = common::Status::internal(
            "unexpected message type " +
            std::to_string(static_cast<unsigned>(frame.type)) + " from daemon");
        return connection_error_;
    }
  }
}

common::Status Client::check_error(std::uint64_t request_id) {
  if (auto it = errors_.find(request_id); it != errors_.end()) {
    common::Status status = it->second;
    errors_.erase(it);
    return status;
  }
  if (!connection_error_.is_ok()) return connection_error_;
  return common::Status::ok();
}

common::Result<SolveResponse> Client::wait_solve(std::uint64_t request_id) {
  for (;;) {
    SolveResponse out;
    if (take_solve(request_id, &out)) return out;
    if (auto status = check_error(request_id); !status.is_ok()) return status;
    if (auto status = pump(-1); !status.is_ok()) return status;
  }
}

common::Result<SweepResponse> Client::wait_sweep(std::uint64_t request_id) {
  for (;;) {
    SweepResponse out;
    if (take_sweep(request_id, &out)) return out;
    if (auto status = check_error(request_id); !status.is_ok()) return status;
    if (auto status = pump(-1); !status.is_ok()) return status;
  }
}

common::Result<StatResponse> Client::wait_stat(std::uint64_t request_id) {
  for (;;) {
    if (auto it = stats_.find(request_id); it != stats_.end()) {
      StatResponse out = std::move(it->second);
      stats_.erase(it);
      return out;
    }
    if (auto status = check_error(request_id); !status.is_ok()) return status;
    if (auto status = pump(-1); !status.is_ok()) return status;
  }
}

common::Result<MetricsResponse> Client::wait_metrics(std::uint64_t request_id) {
  for (;;) {
    if (auto it = metrics_.find(request_id); it != metrics_.end()) {
      MetricsResponse out = std::move(it->second);
      metrics_.erase(it);
      if (!out.status.is_ok()) return out.status;
      return out;
    }
    if (auto status = check_error(request_id); !status.is_ok()) return status;
    if (auto status = pump(-1); !status.is_ok()) return status;
  }
}

common::Result<SolveResponse> Client::solve(SolveRequest request) {
  if (request.request_id == 0) request.request_id = next_request_id();
  if (auto status = send(request); !status.is_ok()) return status;
  return wait_solve(request.request_id);
}

common::Result<SweepResponse> Client::sweep(SweepRequest request) {
  if (request.request_id == 0) request.request_id = next_request_id();
  if (auto status = send(request); !status.is_ok()) return status;
  return wait_sweep(request.request_id);
}

common::Result<StatResponse> Client::stat() {
  StatRequest request;
  request.request_id = next_request_id();
  if (auto status = send(request); !status.is_ok()) return status;
  return wait_stat(request.request_id);
}

common::Result<MetricsResponse> Client::metrics(MetricsFormat format) {
  MetricsRequest request;
  request.request_id = next_request_id();
  request.format = format;
  if (auto status = send(request); !status.is_ok()) return status;
  return wait_metrics(request.request_id);
}

common::Status Client::poll(int timeout_ms) { return pump(timeout_ms); }

bool Client::take_solve(std::uint64_t request_id, SolveResponse* out) {
  auto it = solves_.find(request_id);
  if (it == solves_.end()) return false;
  *out = std::move(it->second);
  solves_.erase(it);
  return true;
}

bool Client::take_sweep(std::uint64_t request_id, SweepResponse* out) {
  auto it = sweeps_.find(request_id);
  if (it == sweeps_.end()) return false;
  *out = std::move(it->second);
  sweeps_.erase(it);
  return true;
}

}  // namespace easched::serve
