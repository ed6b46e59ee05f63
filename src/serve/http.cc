#include "serve/http.h"

#include <algorithm>
#include <cctype>

namespace foresight {

namespace {

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view TrimOws(std::string_view value) {
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
    value.remove_prefix(1);
  }
  while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
    value.remove_suffix(1);
  }
  return value;
}

bool IsTokenChar(char c) {
  // RFC 9110 token characters (header names, methods).
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  constexpr std::string_view kExtra = "!#$%&'*+-.^_`|~";
  return kExtra.find(c) != std::string_view::npos;
}

ParseResult Error(int status, std::string reason) {
  ParseResult result;
  result.state = ParseState::kError;
  result.error_status = status;
  result.error_reason = std::move(reason);
  return result;
}

ParseResult NeedMore() { return ParseResult{}; }

}  // namespace

std::string_view HttpRequest::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

bool HttpRequest::KeepAlive() const {
  const std::string connection = ToLowerAscii(Header("connection"));
  if (minor_version >= 1) return connection != "close";
  return connection == "keep-alive";
}

ParseResult ParseRequest(std::string_view buffer, const HttpLimits& limits,
                         HttpRequest* out) {
  // Locate the end of the header block first; everything before it must fit
  // in max_header_bytes or the request is rejected outright (431) — this is
  // the slowloris bound: a client drip-feeding headers can tie up at most
  // max_header_bytes of memory before hitting either this limit or the
  // server's idle timeout.
  const size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    if (buffer.size() > limits.max_header_bytes) {
      return Error(431, "header block exceeds limit");
    }
    return NeedMore();
  }
  if (header_end + 4 > limits.max_header_bytes) {
    return Error(431, "header block exceeds limit");
  }

  HttpRequest request;

  // Request line: METHOD SP TARGET SP HTTP/1.x
  const size_t line_end = buffer.find("\r\n");
  std::string_view line = buffer.substr(0, line_end);
  const size_t method_end = line.find(' ');
  if (method_end == std::string_view::npos || method_end == 0) {
    return Error(400, "malformed request line");
  }
  std::string_view method = line.substr(0, method_end);
  if (!std::all_of(method.begin(), method.end(), IsTokenChar)) {
    return Error(400, "malformed method");
  }
  const size_t target_end = line.find(' ', method_end + 1);
  if (target_end == std::string_view::npos || target_end == method_end + 1) {
    return Error(400, "malformed request line");
  }
  std::string_view target = line.substr(method_end + 1,
                                        target_end - method_end - 1);
  std::string_view version = line.substr(target_end + 1);
  if (version == "HTTP/1.1") {
    request.minor_version = 1;
  } else if (version == "HTTP/1.0") {
    request.minor_version = 0;
  } else {
    return Error(505, "unsupported HTTP version");
  }
  request.method = std::string(method);
  request.target = std::string(target);
  request.path = std::string(target.substr(0, target.find('?')));

  // Header fields. Body framing is Content-Length only: any
  // Transfer-Encoding field is refused, even an empty one, and a repeated
  // Content-Length is ambiguous framing (RFC 9112 §6.3).
  bool has_length = false;
  size_t cursor = line_end + 2;
  while (cursor < header_end) {
    const size_t eol = buffer.find("\r\n", cursor);
    std::string_view field = buffer.substr(cursor, eol - cursor);
    cursor = eol + 2;
    if (field.front() == ' ' || field.front() == '\t') {
      return Error(431, "obsolete header folding is not supported");
    }
    const size_t colon = field.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Error(400, "malformed header field");
    }
    std::string_view name = field.substr(0, colon);
    if (!std::all_of(name.begin(), name.end(), IsTokenChar)) {
      return Error(400, "malformed header name");
    }
    std::string key = ToLowerAscii(name);
    if (key == "transfer-encoding") {
      return Error(501, "Transfer-Encoding is not supported");
    }
    if (key == "content-length") {
      if (has_length) return Error(400, "repeated Content-Length");
      has_length = true;
    }
    request.headers.emplace_back(std::move(key),
                                 std::string(TrimOws(field.substr(colon + 1))));
  }

  size_t content_length = 0;
  if (has_length) {
    const std::string_view length_header = request.Header("content-length");
    if (length_header.empty() || length_header.size() > 18 ||
        !std::all_of(length_header.begin(), length_header.end(),
                     [](unsigned char c) { return std::isdigit(c); })) {
      return Error(400, "malformed Content-Length");
    }
    for (char c : length_header) {
      content_length = content_length * 10 + static_cast<size_t>(c - '0');
    }
    if (content_length > limits.max_body_bytes) {
      return Error(413, "request body exceeds limit");
    }
  }

  const size_t body_begin = header_end + 4;
  if (buffer.size() - body_begin < content_length) return NeedMore();
  request.body = std::string(buffer.substr(body_begin, content_length));

  *out = std::move(request);
  ParseResult result;
  result.state = ParseState::kComplete;
  result.consumed = body_begin + content_length;
  return result;
}

std::string_view HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += HttpReasonPhrase(response.status);
  out += "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

}  // namespace foresight
