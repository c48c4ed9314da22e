//===- wirebench/src/Wire.cpp - The daemon as a child process -------------===//
//
// Part of the petal project, an open-source reproduction of "Type-Directed
// Completion of Partial Expressions" (PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "Wire.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace wirebench;

namespace {

/// A daemon silent for this long is treated as hung.
constexpr int ReadTimeoutMs = 60000;

void closeFd(int &Fd) {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

} // namespace

std::string wirebench::frame(const std::string &Payload) {
  return "Content-Length: " + std::to_string(Payload.size()) + "\r\n\r\n" +
         Payload;
}

std::unique_ptr<Daemon> Daemon::spawn(const std::string &Path,
                                      const std::vector<std::string> &Args,
                                      const std::string &LogPath,
                                      std::string &Error) {
  ::signal(SIGPIPE, SIG_IGN);
  int In[2], Out[2];
  if (::pipe2(In, O_CLOEXEC) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  if (::pipe2(Out, O_CLOEXEC) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    ::close(In[0]);
    ::close(In[1]);
    return nullptr;
  }
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, In[0], 0);
  posix_spawn_file_actions_adddup2(&FA, Out[1], 1);
  posix_spawn_file_actions_addopen(&FA, 2, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(Path.c_str()));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  std::unique_ptr<Daemon> D(new Daemon());
  int Rc = ::posix_spawn(&D->Pid, Path.c_str(), &FA, nullptr, Argv.data(),
                         environ);
  posix_spawn_file_actions_destroy(&FA);
  ::close(In[0]);
  ::close(Out[1]);
  D->ToChild = In[1];
  D->FromChild = Out[0];
  if (Rc != 0) {
    D->Pid = -1;
    Error = "cannot start '" + Path + "': " + std::strerror(Rc);
    return nullptr;
  }
  return D;
}

Daemon::~Daemon() {
  closeFd(ToChild);
  closeFd(FromChild);
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
  }
}

bool Daemon::writeFrame(const std::string &Payload) {
  std::string Bytes = frame(Payload);
  const char *P = Bytes.data();
  size_t Left = Bytes.size();
  while (Left) {
    ssize_t N = ::write(ToChild, P, Left);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    P += N;
    Left -= static_cast<size_t>(N);
  }
  return true;
}

bool Daemon::readFrame(std::string &Payload) {
  auto Fill = [&]() {
    if (BufPos > 0 && BufPos == Buf.size()) {
      Buf.clear();
      BufPos = 0;
    }
    pollfd P{FromChild, POLLIN, 0};
    int R = ::poll(&P, 1, ReadTimeoutMs);
    if (R <= 0)
      return false;
    char Chunk[65536];
    ssize_t N;
    do
      N = ::read(FromChild, Chunk, sizeof(Chunk));
    while (N < 0 && errno == EINTR);
    if (N <= 0)
      return false;
    Buf.append(Chunk, static_cast<size_t>(N));
    return true;
  };
  size_t HeaderEnd;
  while ((HeaderEnd = Buf.find("\r\n\r\n", BufPos)) == std::string::npos)
    if (!Fill())
      return false;
  static const char Key[] = "Content-Length: ";
  size_t K = Buf.find(Key, BufPos);
  if (K == std::string::npos || K > HeaderEnd)
    return false;
  size_t Len = std::strtoull(Buf.c_str() + K + sizeof(Key) - 1, nullptr, 10);
  size_t Start = HeaderEnd + 4;
  while (Buf.size() - Start < Len)
    if (!Fill())
      return false;
  Payload.assign(Buf, Start, Len);
  BufPos = Start + Len;
  if (BufPos == Buf.size()) {
    Buf.clear();
    BufPos = 0;
  }
  return true;
}

bool Daemon::call(const std::string &Request, std::string &Response) {
  return writeFrame(Request) && readFrame(Response);
}

double Daemon::peakRssMib() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

bool Daemon::stop() {
  std::string Resp;
  call("{\"jsonrpc\":\"2.0\",\"id\":0,\"method\":\"shutdown\"}", Resp);
  writeFrame("{\"jsonrpc\":\"2.0\",\"method\":\"exit\"}");
  closeFd(ToChild);
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int Status = 0;
  for (;;) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid)
      break;
    if (R < 0 && errno != EINTR)
      return false;
    if (std::chrono::steady_clock::now() > Deadline) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      Pid = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Pid = -1;
  closeFd(FromChild);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

static cpu_set_t Allowed;

size_t wirebench::releaseCpus() {
  if (CPU_COUNT(&Allowed) == 0 ||
      ::sched_setaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return 1;
  return static_cast<size_t>(CPU_COUNT(&Allowed));
}

int wirebench::confineToOneCpu(std::string &Error) {
  CPU_ZERO(&Allowed);
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0) {
    Error = std::string("sched_getaffinity: ") + std::strerror(errno);
    return -1;
  }
  int Cpu = -1;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed))
      Cpu = C;
  if (Cpu < 0) {
    Error = "no CPU in the affinity mask";
    return -1;
  }
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  if (::sched_setaffinity(0, sizeof(One), &One) != 0) {
    Error = std::string("sched_setaffinity: ") + std::strerror(errno);
    return -1;
  }
  return Cpu;
}
