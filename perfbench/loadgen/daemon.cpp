#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "loadgen.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kStartTimeoutMs = 30000;
constexpr const char* kListening = "listening on ";

}  // namespace

std::unique_ptr<Daemon> Daemon::start(const std::string& cli, const std::string& store_path,
                                      std::string* error) {
  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);

  std::vector<std::string> args = {cli,     "serve", "--listen", "127.0.0.1:0",
                                   "--store", store_path};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::unique_ptr<Daemon> daemon(new Daemon());
  const int rc =
      ::posix_spawn(&daemon->pid_, cli.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    daemon->pid_ = -1;
    *error = "spawn " + cli + ": " + std::strerror(rc);
    return nullptr;
  }
  daemon->out_fd_ = pipe_fds[0];

  // The first stdout line names the bound port: "... listening on H:P (...".
  std::string line;
  const auto deadline = Clock::now() + std::chrono::milliseconds(kStartTimeoutMs);
  while (line.find('\n') == std::string::npos) {
    const int left = static_cast<int>(ms_between(Clock::now(), deadline));
    pollfd pfd{daemon->out_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, left) <= 0) {
      *error = "daemon did not report its port within " + std::to_string(kStartTimeoutMs) +
               " ms";
      return nullptr;  // the destructor stops the child
    }
    char buf[256];
    const ssize_t n = ::read(daemon->out_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = "daemon exited before listening";
      return nullptr;
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t at = line.find(kListening);
  const std::size_t colon =
      at == std::string::npos ? std::string::npos : line.find(':', at);
  if (colon == std::string::npos) {
    *error = "unexpected daemon banner: " + line.substr(0, line.find('\n'));
    return nullptr;
  }
  daemon->port_ = std::atoi(line.c_str() + colon + 1);
  if (daemon->port_ <= 0) {
    *error = "no port in daemon banner: " + line.substr(0, line.find('\n'));
    return nullptr;
  }
  return daemon;
}

Daemon::~Daemon() {
  if (pid_ > 0) stop(/*graceful=*/false);
}

double Daemon::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool Daemon::stop(bool graceful) {
  if (pid_ <= 0) return false;
  ::kill(pid_, graceful ? SIGTERM : SIGKILL);
  // Drain its output (the shutdown summary) so it never blocks on a full pipe.
  char buf[512];
  while (out_fd_ >= 0 && ::read(out_fd_, buf, sizeof(buf)) > 0) {
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return !graceful || (WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

}  // namespace perfbench
