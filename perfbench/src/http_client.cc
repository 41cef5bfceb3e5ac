#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>

namespace perfbench {

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Value of header `name` (lower case) in a response head, or "".
std::string HeaderValue(const std::string& head, const std::string& name) {
  std::string lower = Lower(head);
  size_t pos = lower.find("\r\n" + name + ":");
  if (pos == std::string::npos) return "";
  size_t start = pos + 3 + name.size();
  size_t end = lower.find("\r\n", start);
  std::string value = lower.substr(start, end - start);
  size_t first = value.find_first_not_of(' ');
  return first == std::string::npos ? "" : value.substr(first);
}

}  // namespace

bool HttpClient::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Disconnect();
    return false;
  }
  return true;
}

void HttpClient::Disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpClient::FillMore() {
  char chunk[16384];
  ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<size_t>(n));
  return true;
}

size_t HttpClient::ReadUntil(const std::string& delimiter) {
  size_t scanned = 0;
  while (true) {
    size_t pos = buffer_.find(delimiter, scanned);
    if (pos != std::string::npos) return pos;
    scanned = buffer_.size() > delimiter.size()
                  ? buffer_.size() - delimiter.size()
                  : 0;
    if (!FillMore()) return std::string::npos;
  }
}

bool HttpClient::Take(size_t n, std::string* out) {
  while (buffer_.size() < n) {
    if (!FillMore()) return false;
  }
  if (out != nullptr) out->append(buffer_, 0, n);
  buffer_.erase(0, n);
  return true;
}

HttpResponse HttpClient::Send(const std::string& method,
                              const std::string& target,
                              const Headers& headers,
                              const std::string& body) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  for (const auto& [name, value] : headers) {
    request += name + ": " + value + "\r\n";
  }
  if (method == "POST") {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !Connect()) continue;
    HttpResponse response = RoundTrip(request);
    if (response.status != 0) return response;
    Disconnect();
  }
  return {};
}

HttpResponse HttpClient::RoundTrip(const std::string& request) {
  HttpResponse response;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return {};
    sent += static_cast<size_t>(n);
  }
  size_t head_end = ReadUntil("\r\n\r\n");
  if (head_end == std::string::npos) return {};
  std::string head = buffer_.substr(0, head_end);
  buffer_.erase(0, head_end + 4);
  size_t sp = head.find(' ');
  int status = sp == std::string::npos ? 0 : std::atoi(head.c_str() + sp + 1);
  if (status == 0) return {};

  if (HeaderValue(head, "transfer-encoding").find("chunked") !=
      std::string::npos) {
    while (true) {
      size_t line_end = ReadUntil("\r\n");
      if (line_end == std::string::npos) return {};
      size_t size = std::strtoull(buffer_.c_str(), nullptr, 16);
      buffer_.erase(0, line_end + 2);
      if (size == 0) {
        size_t end = ReadUntil("\r\n");  // empty trailer section
        if (end == std::string::npos) return {};
        buffer_.erase(0, end + 2);
        break;
      }
      if (!Take(size, &response.body) || !Take(2, nullptr)) return {};
    }
  } else {
    std::string length = HeaderValue(head, "content-length");
    if (!length.empty() &&
        !Take(std::strtoull(length.c_str(), nullptr, 10), &response.body)) {
      return {};
    }
  }
  if (HeaderValue(head, "connection").find("close") != std::string::npos) {
    Disconnect();
  }
  response.status = status;
  return response;
}

}  // namespace perfbench
