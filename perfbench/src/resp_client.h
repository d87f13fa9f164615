// Blocking RESP client: one connection, one request in flight (closed loop).

#ifndef PERFBENCH_RESP_CLIENT_H_
#define PERFBENCH_RESP_CLIENT_H_

#include <string>
#include <vector>

#include "net/resp.h"

namespace perfbench {

class RespClient {
 public:
  RespClient() = default;
  ~RespClient();
  RespClient(const RespClient&) = delete;
  RespClient& operator=(const RespClient&) = delete;

  /// Connects to 127.0.0.1:port with TCP_NODELAY. False on failure.
  bool Connect(int port);

  /// Sends one command and blocks for its reply. `wire`, when given,
  /// receives a copy of the request bytes. False when the connection fails
  /// or the reply does not parse.
  bool Call(const std::vector<std::string>& args,
            pmblade::net::RespValue* reply, std::string* wire = nullptr);

 private:
  int fd_ = -1;
  pmblade::net::RespParser parser_;
  std::string out_;
};

}  // namespace perfbench

#endif  // PERFBENCH_RESP_CLIENT_H_
