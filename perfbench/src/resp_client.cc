#include "resp_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace perfbench {

using pmblade::net::RespParser;

RespClient::~RespClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool RespClient::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool RespClient::Call(const std::vector<std::string>& args,
                      pmblade::net::RespValue* reply, std::string* wire) {
  out_.clear();
  pmblade::net::EncodeBulkStringArray(args, &out_);
  if (wire != nullptr) wire->append(out_);
  size_t sent = 0;
  while (sent < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + sent, out_.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  char buf[16 << 10];
  while (true) {
    switch (parser_.Next(reply)) {
      case RespParser::Result::kValue:
        return true;
      case RespParser::Result::kError:
        return false;
      case RespParser::Result::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    parser_.Feed(buf, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
