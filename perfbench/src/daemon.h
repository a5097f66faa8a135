// A rankcubed child process: spawn, wait until it listens, signal, reap.
#ifndef RCBENCH_DAEMON_H_
#define RCBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace rcbench {

class Daemon {
 public:
  /// Starts `binary args...` with stderr appended to `log_path` and blocks
  /// until it prints its "listening on HOST:PORT" line (or `timeout_s`
  /// passes, or it exits).
  static rankcube::Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path, double timeout_s);

  /// SIGKILLs the process if it is still running, then reaps it.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  /// Peak resident set (VmHWM) in MiB; 0 if unreadable.
  double PeakRssMb() const;
  /// Sends `sig` and waits for the process to exit. Returns the wait status.
  int Stop(int sig);

 private:
  Daemon(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  pid_t pid_;
  int out_fd_;  ///< read end of the child's stdout pipe
  uint16_t port_ = 0;
};

}  // namespace rcbench

#endif  // RCBENCH_DAEMON_H_
