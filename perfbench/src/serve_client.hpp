// Process and socket plumbing for driving the real bflyd binary: spawn it on
// a Unix socket, drive it open-loop, stop it and wait for it.  Blocking
// control traffic (ping, stats) goes through bfly::serve::Client.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

/// A running bflyd.  The constructor forks and execs it in the current
/// directory and waits for its readiness line; the destructor stops it
/// (SIGTERM, then SIGKILL after a grace period) and reaps it.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::string& socket,
                const std::vector<std::string>& extra_args);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// VmHWM of the daemon in MiB (0 once it has exited).
  double peak_rss_mb() const;
  /// CPU time the daemon has used, every thread, in seconds (steal time
  /// excluded).
  double cpu_seconds() const;
  /// SIGTERM, wait; true when it exited 0 within the grace period.
  bool stop();

 private:
  void wait_ready();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// The raw text of the "result" member of a bflyd ok-response line: the
/// bytes between "\"result\":" and the closing brace.
std::string raw_result(const std::string& line);

/// One request of an open-loop schedule: when it is due (seconds from the
/// start of the phase) and its frame without the "id" member.
struct Scheduled {
  double due_s = 0.0;
  std::string body;  ///< e.g. "\"op\":\"ping\"}" — the frame is {"id":"<index>",<body>
  int kind = 0;
};

struct LoadRun {
  std::vector<double> latency_s;  ///< per request, from due time to response
  std::vector<double> lag_s;      ///< per request, from due time to send
  std::vector<std::string> responses;
  double last_done_s = 0.0;  ///< when the last response arrived
  bool complete = false;     ///< every request answered before the timeout
};

/// Sends `schedule` open-loop over `connections` sockets (round-robin) from
/// one thread, each request at its due time, and collects every response.
LoadRun drive_open_loop(const std::string& socket, const std::vector<Scheduled>& schedule,
                        std::size_t connections, double timeout_s);

}  // namespace pb
