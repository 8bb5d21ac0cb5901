#include "serve_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace pb {
namespace {

/// A raw Unix-socket fd: the open-loop driver polls many of them without
/// blocking, which bfly::serve::Client does not offer.  -1 on failure.
int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& binary, const std::string& socket,
                             const std::vector<std::string>& extra_args) {
  ::unlink(socket.c_str());
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> args = {binary, "--socket", socket};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    const int err = ::open("bflyd.stderr", O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (err >= 0) ::dup2(err, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  stdout_fd_ = out[0];
  try {
    wait_ready();
  } catch (...) {
    stop();
    ::close(stdout_fd_);
    throw;
  }
}

void DaemonProcess::wait_ready() {
  // Readiness: "bflyd listening unix <path>\n" on stdout.
  std::string line;
  const Clock::time_point t0 = Clock::now();
  while (line.find('\n') == std::string::npos) {
    pollfd p{stdout_fd_, POLLIN, 0};
    const int left_ms = 20'000 - static_cast<int>(seconds_since(t0) * 1e3);
    if (left_ms <= 0 || ::poll(&p, 1, left_ms) <= 0) {
      throw std::runtime_error("bflyd did not report readiness");
    }
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("bflyd exited before readiness: see bflyd.stderr");
    line.append(buf, static_cast<std::size_t>(n));
  }
  if (line.rfind("bflyd listening unix", 0) != 0) {
    throw std::runtime_error("unexpected bflyd readiness line: " + line);
  }
}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) stop();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

double DaemonProcess::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0.0;
}

double DaemonProcess::cpu_seconds() const {
  clockid_t clock{};
  timespec t{};
  if (pid_ <= 0 || ::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &t) != 0) {
    throw std::runtime_error("cannot read bflyd's CPU clock");
  }
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

bool DaemonProcess::stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    const pid_t w = ::waitpid(pid_, &status, WNOHANG);
    if (w == pid_) break;
    if (w < 0 && errno != EINTR) break;
    if (seconds_since(t0) > 15.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string raw_result(const std::string& line) {
  static const std::string tag = "\"result\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos || line.empty() || line.back() != '}') return "";
  const std::size_t begin = at + tag.size();
  return line.substr(begin, line.size() - 1 - begin);
}

LoadRun drive_open_loop(const std::string& socket, const std::vector<Scheduled>& schedule,
                        std::size_t connections, double timeout_s) {
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
  };
  std::vector<Conn> conns(connections);
  for (Conn& c : conns) {
    c.fd = connect_unix(socket);
    if (c.fd < 0) throw std::runtime_error("cannot connect to " + socket);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }

  LoadRun run;
  const std::size_t total = schedule.size();
  run.latency_s.assign(total, 0.0);
  run.lag_s.assign(total, 0.0);
  run.responses.assign(total, std::string());
  std::size_t next = 0;
  std::size_t answered = 0;
  std::vector<pollfd> fds(connections);
  const Clock::time_point t0 = Clock::now();
  const double end_by = (schedule.empty() ? 0.0 : schedule.back().due_s) + timeout_s;

  while (answered < total) {
    double now = seconds_since(t0);
    if (now > end_by) break;
    while (next < total && schedule[next].due_s <= now) {
      Conn& c = conns[next % connections];
      c.out += "{\"id\":\"" + std::to_string(next) + "\"," + schedule[next].body + "\n";
      run.lag_s[next] = now - schedule[next].due_s;
      ++next;
    }
    for (std::size_t i = 0; i < connections; ++i) {
      Conn& c = conns[i];
      while (!c.out.empty()) {
        const ssize_t w = ::write(c.fd, c.out.data(), c.out.size());
        if (w <= 0) break;
        c.out.erase(0, static_cast<std::size_t>(w));
      }
      fds[i] = pollfd{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    }
    // Sleep until a millisecond before the next due time, then poll without
    // sleeping, so the generator's own wake-ups stay out of the latencies.
    now = seconds_since(t0);
    const double until_due = next < total ? schedule[next].due_s - now : 0.01;
    const double sleep_s = until_due > 0.002 ? std::min(until_due - 0.001, 0.01) : 0.0;
    const timespec wait{0, static_cast<long>(sleep_s * 1e9)};
    if (::ppoll(fds.data(), fds.size(), &wait, nullptr) <= 0) continue;
    for (std::size_t i = 0; i < connections; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i];
      char buf[65536];
      for (;;) {
        const ssize_t n = ::read(c.fd, buf, sizeof(buf));
        if (n <= 0) break;
        c.in.append(buf, static_cast<std::size_t>(n));
      }
      const double done = seconds_since(t0);
      std::size_t pos = 0;
      for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos; pos = nl + 1) {
        std::string line = c.in.substr(pos, nl - pos);
        // The id is the first member of every response: {"id":"<index>",...
        const std::size_t index = line.rfind("{\"id\":\"", 0) == 0
                                      ? std::strtoull(line.c_str() + 7, nullptr, 10)
                                      : total;
        if (index >= total || !run.responses[index].empty()) {
          throw std::runtime_error("unexpected response: " + line.substr(0, 200));
        }
        run.latency_s[index] = done - schedule[index].due_s;
        run.responses[index] = std::move(line);
        run.last_done_s = done;
        ++answered;
      }
      c.in.erase(0, pos);
    }
  }
  for (Conn& c : conns) ::close(c.fd);
  run.complete = answered == total;
  return run;
}

}  // namespace pb
