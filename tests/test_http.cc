#include "serve/http.h"

#include <gtest/gtest.h>

#include <string>

namespace foresight {
namespace {

ParseResult Parse(const std::string& raw, HttpRequest* out,
                  HttpLimits limits = {}) {
  return ParseRequest(raw, limits, out);
}

TEST(HttpParser, ParsesSimpleGet) {
  HttpRequest request;
  const std::string raw = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  ParseResult result = Parse(raw, &request);
  ASSERT_EQ(result.state, ParseState::kComplete);
  EXPECT_EQ(result.consumed, raw.size());
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_EQ(request.path, "/healthz");
  EXPECT_EQ(request.minor_version, 1);
  EXPECT_EQ(request.Header("host"), "x");
  EXPECT_TRUE(request.body.empty());
  EXPECT_TRUE(request.KeepAlive());
}

TEST(HttpParser, StripsQueryStringFromPath) {
  HttpRequest request;
  ParseResult result =
      Parse("GET /v1/overview/abc?mode=exact HTTP/1.1\r\n\r\n", &request);
  ASSERT_EQ(result.state, ParseState::kComplete);
  EXPECT_EQ(request.path, "/v1/overview/abc");
  EXPECT_EQ(request.target, "/v1/overview/abc?mode=exact");
}

TEST(HttpParser, ParsesBodyWithContentLength) {
  HttpRequest request;
  ParseResult result = Parse(
      "POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd", &request);
  ASSERT_EQ(result.state, ParseState::kComplete);
  EXPECT_EQ(request.body, "abcd");
}

TEST(HttpParser, HeaderNamesAreCaseInsensitiveValuesTrimmed) {
  HttpRequest request;
  ParseResult result = Parse(
      "GET / HTTP/1.1\r\nX-Thing:  padded value \r\n\r\n", &request);
  ASSERT_EQ(result.state, ParseState::kComplete);
  EXPECT_EQ(request.Header("x-thing"), "padded value");
}

TEST(HttpParser, TruncatedRequestsNeedMore) {
  // Every proper prefix of a full request must parse as kNeedMore — never an
  // error, never a bogus success.
  const std::string full =
      "POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  for (size_t cut = 0; cut < full.size(); ++cut) {
    HttpRequest request;
    ParseResult result = Parse(full.substr(0, cut), &request);
    EXPECT_EQ(result.state, ParseState::kNeedMore) << "cut at " << cut;
  }
}

TEST(HttpParser, PipelinedRequestsConsumeExactly) {
  const std::string first = "GET /a HTTP/1.1\r\n\r\n";
  const std::string second =
      "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
  std::string buffer = first + second;

  HttpRequest request;
  ParseResult result = Parse(buffer, &request);
  ASSERT_EQ(result.state, ParseState::kComplete);
  EXPECT_EQ(result.consumed, first.size());
  EXPECT_EQ(request.path, "/a");

  buffer.erase(0, result.consumed);
  result = Parse(buffer, &request);
  ASSERT_EQ(result.state, ParseState::kComplete);
  EXPECT_EQ(result.consumed, second.size());
  EXPECT_EQ(request.path, "/b");
  EXPECT_EQ(request.body, "hi");
}

TEST(HttpParser, RejectsOversizedHeaders) {
  HttpLimits limits;
  limits.max_header_bytes = 128;
  // A header block that exceeds the limit even before \r\n\r\n arrives must
  // error immediately (slowloris cannot buffer unbounded headers).
  std::string raw = "GET / HTTP/1.1\r\nX-Pad: " + std::string(200, 'a');
  HttpRequest request;
  ParseResult result = Parse(raw, &request, limits);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.error_status, 431);

  // And a complete block over the limit errors too.
  raw += "\r\n\r\n";
  result = Parse(raw, &request, limits);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.error_status, 431);
}

TEST(HttpParser, RejectsOversizedBody) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  HttpRequest request;
  ParseResult result = Parse(
      "POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n", &request, limits);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.error_status, 413);
}

TEST(HttpParser, RejectsMalformedContentLength) {
  struct Case {
    const char* raw;
    int status;
  };
  const Case cases[] = {
      {"POST / HTTP/1.1\r\nContent-Length: 4x\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n", 400},
      // Conflicting framing: the first value must not silently win.
      {"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n"
       "\r\nabcd",
       400},
      {"POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n"
       "\r\nabcd",
       400},
      // Any Transfer-Encoding field is refused, even an empty one.
      {"POST / HTTP/1.1\r\nTransfer-Encoding:\r\nContent-Length: 4\r\n"
       "\r\nabcd",
       501},
  };
  for (const Case& c : cases) {
    HttpRequest request;
    ParseResult result = Parse(c.raw, &request);
    ASSERT_EQ(result.state, ParseState::kError) << c.raw;
    EXPECT_EQ(result.error_status, c.status) << c.raw;
  }
}

TEST(HttpParser, RejectsTransferEncoding) {
  HttpRequest request;
  ParseResult result = Parse(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", &request);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.error_status, 501);
}

TEST(HttpParser, RejectsUnsupportedVersionAndGarbage) {
  HttpRequest request;
  EXPECT_EQ(Parse("GET / HTTP/2.0\r\n\r\n", &request).state,
            ParseState::kError);
  EXPECT_EQ(Parse("GET / HTTP/2.0\r\n\r\n", &request).error_status, 505);
  EXPECT_EQ(Parse("garbage\r\n\r\n", &request).state, ParseState::kError);
  EXPECT_EQ(Parse("\r\n\r\n", &request).state, ParseState::kError);
  EXPECT_EQ(Parse("GET  HTTP/1.1\r\n\r\n", &request).state,
            ParseState::kError);
}

TEST(HttpParser, RejectsHeaderFoldingAndBadNames) {
  HttpRequest request;
  ParseResult result = Parse(
      "GET / HTTP/1.1\r\nA: b\r\n folded\r\n\r\n", &request);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.error_status, 431);

  result = Parse("GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", &request);
  ASSERT_EQ(result.state, ParseState::kError);
  EXPECT_EQ(result.error_status, 400);
}

TEST(HttpParser, KeepAliveDefaults) {
  HttpRequest request;
  ASSERT_EQ(Parse("GET / HTTP/1.1\r\n\r\n", &request).state,
            ParseState::kComplete);
  EXPECT_TRUE(request.KeepAlive());
  ASSERT_EQ(
      Parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &request).state,
      ParseState::kComplete);
  EXPECT_FALSE(request.KeepAlive());
  ASSERT_EQ(Parse("GET / HTTP/1.0\r\n\r\n", &request).state,
            ParseState::kComplete);
  EXPECT_FALSE(request.KeepAlive());
  ASSERT_EQ(Parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
                  &request)
                .state,
            ParseState::kComplete);
  EXPECT_TRUE(request.KeepAlive());
}

TEST(HttpResponseTest, SerializeCarriesStatusHeadersBody) {
  HttpResponse response;
  response.status = 503;
  response.headers.emplace_back("Retry-After", "1");
  response.body = "overloaded";
  const std::string wire = SerializeResponse(response, /*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 10), "overloaded");

  const std::string closing = SerializeResponse(response, false);
  EXPECT_NE(closing.find("Connection: close\r\n"), std::string::npos);
}

}  // namespace
}  // namespace foresight
