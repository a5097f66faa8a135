#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace rcbench {

rankcube::Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path, double timeout_s) {
  int out[2];
  if (::pipe(out) != 0) {
    return rankcube::Status::Internal(std::string("pipe: ") +
                                      std::strerror(errno));
  }
  int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return rankcube::Status::Internal("open " + log_path + ": " +
                                      std::strerror(errno));
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    ::close(log_fd);
    return rankcube::Status::Internal(std::string("fork: ") +
                                      std::strerror(errno));
  }
  if (pid == 0) {
    // The daemon dies with the benchmark, even if the benchmark crashes.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::close(log_fd);
    ::execv(binary.c_str(), argv.data());
    _exit(127);
  }
  ::close(out[1]);
  ::close(log_fd);
  std::unique_ptr<Daemon> d(new Daemon(pid, out[0]));

  // Read stdout until the listening line.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::string buf;
  const std::string marker = "listening on ";
  while (true) {
    size_t at = buf.find(marker);
    size_t eol =
        at == std::string::npos ? std::string::npos : buf.find('\n', at);
    if (eol != std::string::npos) {
      std::string addr =
          buf.substr(at + marker.size(), eol - at - marker.size());
      size_t colon = addr.rfind(':');
      if (colon == std::string::npos) break;
      d->port_ = static_cast<uint16_t>(std::atoi(addr.c_str() + colon + 1));
      return d;
    }
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left <= 0) break;
    pollfd p{d->out_fd_, POLLIN, 0};
    int n = ::poll(&p, 1, static_cast<int>(left));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    char chunk[256];
    ssize_t r = ::read(d->out_fd_, chunk, sizeof(chunk));
    if (r <= 0) break;  // exited before listening
    buf.append(chunk, static_cast<size_t>(r));
  }
  return rankcube::Status::Internal("rankcubed did not start listening (see " +
                                    log_path + ")");
}

Daemon::~Daemon() {
  if (pid_ > 0) Stop(SIGKILL);
  if (out_fd_ >= 0) ::close(out_fd_);
}

int Daemon::Stop(int sig) {
  int status = 0;
  if (pid_ <= 0) return status;
  ::kill(pid_, sig);
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return status;
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace rcbench
