// A blocking HTTP/1.1 keep-alive client over loopback: one persistent
// connection, one request in flight, responses framed by Content-Length or
// chunked transfer encoding (both of which pdbd emits).

#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct HttpResponse {
  /// HTTP status, or 0 when the exchange failed at the transport level.
  int status = 0;
  /// The decoded body (chunks concatenated).
  std::string body;
};

class HttpClient {
 public:
  using Headers = std::vector<std::pair<std::string, std::string>>;

  explicit HttpClient(uint16_t port) : port_(port) {}
  ~HttpClient() { Disconnect(); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One request/response exchange on the persistent connection. A reused
  /// socket the server has closed since (idle timeout) is retried once on a
  /// fresh connection.
  HttpResponse Send(const std::string& method, const std::string& target,
                    const Headers& headers, const std::string& body);

  HttpResponse Get(const std::string& target) {
    return Send("GET", target, {}, "");
  }

 private:
  bool Connect();
  void Disconnect();
  bool FillMore();
  size_t ReadUntil(const std::string& delimiter);
  bool Take(size_t n, std::string* out);
  HttpResponse RoundTrip(const std::string& request);

  uint16_t port_;
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
