#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/json.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "service/update.h"
#include "shard/sharded_service.h"
#include "relational/value.h"

namespace relview {
namespace net {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sends all of `data`; false on a connection error. MSG_NOSIGNAL keeps a
/// dead peer from raising SIGPIPE at the process.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// BuildResponse plus the `x-relview-trace` echo: every response produced
/// while a request context is installed — 200s, 409s, and the 429/503
/// refusal paths alike — carries the resolved trace id back to the
/// client, so a caller can correlate any outcome with the server's spans
/// and wide events.
std::string TracedResponse(int status, const std::string& content_type,
                           const std::string& body, bool keep_alive,
                           std::vector<std::string> extra_headers = {}) {
  const TraceContext& ctx = CurrentTraceContext();
  if (ctx.valid()) {
    extra_headers.push_back("x-relview-trace: " + TraceIdHex(ctx.trace_id));
  }
  return BuildResponse(status, content_type, body, keep_alive, extra_headers);
}

std::string ErrorBody(const std::string& error, const std::string& detail) {
  std::string out = "{\"error\":\"" + JsonEscape(error) + "\"";
  if (!detail.empty()) out += ",\"detail\":\"" + JsonEscape(detail) + "\"";
  out += "}";
  return out;
}

/// One wire value -> one Value. Constants only: ids must fit below the
/// null tag; labeled nulls never travel over the wire inbound.
Result<Value> ParseWireValue(const JsonValue& v) {
  if (!v.is_int()) {
    return Status::InvalidArgument("tuple values must be integers");
  }
  const int64_t raw = v.int_value();
  if (raw < 0 || raw >= static_cast<int64_t>(Value::kNullTag)) {
    return Status::InvalidArgument("tuple value out of constant range");
  }
  return Value::Const(static_cast<uint32_t>(raw));
}

Result<Tuple> ParseWireRow(const JsonValue* v, int arity,
                           const char* field) {
  if (v == nullptr || !v->is_array()) {
    return Status::InvalidArgument(std::string("update is missing array \"") +
                                   field + "\"");
  }
  if (static_cast<int>(v->array().size()) != arity) {
    return Status::InvalidArgument(
        std::string("\"") + field + "\" has arity " +
        std::to_string(v->array().size()) + ", view has arity " +
        std::to_string(arity));
  }
  Tuple t(arity);
  for (int i = 0; i < arity; ++i) {
    RELVIEW_ASSIGN_OR_RETURN(Value val, ParseWireValue(v->array()[i]));
    t[i] = val;
  }
  return t;
}

/// {"op":"insert","row":[...]} / {"op":"delete","row":[...]} /
/// {"op":"replace","from":[...],"to":[...]}  ->  ViewUpdate.
Result<std::vector<ViewUpdate>> ParseWireUpdates(const JsonValue& doc,
                                                 int arity) {
  const JsonValue* arr = doc.Get("updates");
  if (arr == nullptr || !arr->is_array()) {
    return Status::InvalidArgument("body needs an \"updates\" array");
  }
  std::vector<ViewUpdate> updates;
  updates.reserve(arr->array().size());
  for (size_t i = 0; i < arr->array().size(); ++i) {
    const JsonValue& u = arr->array()[i];
    const std::string at = "updates[" + std::to_string(i) + "]: ";
    if (!u.is_object()) {
      return Status::InvalidArgument(at + "not an object");
    }
    const JsonValue* op = u.Get("op");
    if (op == nullptr || !op->is_string()) {
      return Status::InvalidArgument(at + "missing \"op\"");
    }
    const std::string& kind = op->string_value();
    if (kind == "insert" || kind == "delete") {
      auto row = ParseWireRow(u.Get("row"), arity, "row");
      if (!row.ok()) {
        return Status::InvalidArgument(at + row.status().message());
      }
      Tuple t = std::move(row).value();
      updates.push_back(kind == "insert" ? ViewUpdate::Insert(std::move(t))
                                         : ViewUpdate::Delete(std::move(t)));
    } else if (kind == "replace") {
      auto from = ParseWireRow(u.Get("from"), arity, "from");
      if (!from.ok()) {
        return Status::InvalidArgument(at + from.status().message());
      }
      auto to = ParseWireRow(u.Get("to"), arity, "to");
      if (!to.ok()) {
        return Status::InvalidArgument(at + to.status().message());
      }
      updates.push_back(ViewUpdate::Replace(std::move(from).value(),
                                            std::move(to).value()));
    } else {
      return Status::InvalidArgument(at + "unknown op \"" + kind + "\"");
    }
  }
  return updates;
}

/// Appends one relation's rows to an open JSON array. Constants render as
/// their id; labeled nulls as the string "?<id>" (outbound only — the
/// database projection can contain nulls introduced by insertions).
void AppendRows(const Relation& rel, bool* first_row, std::string* out) {
  for (const Tuple& t : rel.rows()) {
    if (!*first_row) *out += ",";
    *first_row = false;
    *out += "[";
    for (int i = 0; i < t.arity(); ++i) {
      if (i > 0) *out += ",";
      if (t[i].is_null()) {
        *out += "\"?" + std::to_string(t[i].index()) + "\"";
      } else {
        *out += std::to_string(t[i].index());
      }
    }
    *out += "]";
  }
}

/// Renders the composed rows of every shard's `view` (or `database` when
/// `database` is true) as one JSON array — shards partition the relation,
/// so concatenation IS the composed instance.
std::string ShardRowsJson(const ShardedSnapshot& snap, bool database) {
  std::string out = "[";
  bool first_row = true;
  for (const ViewSnapshot& s : snap.shards) {
    const auto& rel = database ? s.database : s.view;
    if (rel != nullptr) AppendRows(*rel, &first_row, &out);
  }
  out += "]";
  return out;
}

}  // namespace

Result<std::unique_ptr<HttpServer>> HttpServer::Start(
    TenantSet* tenants, TelemetryRegistry* registry, ServerOptions options) {
  if (tenants == nullptr || tenants->size() == 0) {
    return Status::InvalidArgument("HttpServer needs at least one tenant");
  }
  if (options.max_connections <= 0) {
    return Status::InvalidArgument("max_connections must be positive");
  }
  std::unique_ptr<HttpServer> server(
      new HttpServer(tenants, registry, options));
  RELVIEW_RETURN_IF_ERROR(server->Listen());
  if (registry != nullptr) {
    WriteGate* gate = server->gate_.get();
    NetMetrics* metrics = &server->metrics_;
    registry->Register("net", [metrics, gate] {
      std::vector<MetricFamily> out = metrics->Collect();
      out.push_back(GaugeFamily("relview_net_write_gate_depth",
                                "Writes holding admission tickets",
                                static_cast<double>(gate->depth())));
      out.push_back(GaugeFamily("relview_net_write_gate_capacity",
                                "Write admission capacity",
                                static_cast<double>(gate->capacity())));
      out.push_back(CounterFamily("relview_net_write_gate_sheds_total",
                                  "Batches shed with 429",
                                  static_cast<double>(gate->sheds())));
      out.push_back(GaugeFamily(
          "relview_net_write_latency_ewma_seconds",
          "EWMA of admitted write latency (prices Retry-After)",
          static_cast<double>(gate->ewma_write_nanos()) / 1e9));
      return out;
    });
    registry->RegisterJson("net", [metrics, gate] {
      std::string j = metrics->ToJson();
      j.pop_back();  // strip '}' to splice the gate in
      j += ",\"write_gate\":{\"depth\":" + std::to_string(gate->depth()) +
           ",\"capacity\":" + std::to_string(gate->capacity()) +
           ",\"sheds\":" + std::to_string(gate->sheds()) +
           ",\"ewma_write_nanos\":" +
           std::to_string(gate->ewma_write_nanos()) + "}}";
      return j;
    });
  }
  const int workers = options.worker_threads > 0 ? options.worker_threads
                                                 : options.max_connections;
  server->pool_ = std::make_unique<ThreadPool>(workers);
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

HttpServer::HttpServer(TenantSet* tenants, TelemetryRegistry* registry,
                       const ServerOptions& options)
    : tenants_(tenants),
      registry_(registry),
      options_(options),
      gate_(std::make_unique<WriteGate>(options.max_write_queue)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int yes = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal(std::string("bind ") + options_.host + ":" +
                            std::to_string(options_.port) + ": " +
                            std::strerror(errno));
  }
  if (::listen(listen_fd_, 256) < 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void HttpServer::BeginDrain() {
  // Async-signal-safe: one atomic store plus shutdown(2). The listen fd is
  // fixed before the acceptor starts and closed only after Wait() joins
  // everything, so the handler never races a close.
  draining_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void HttpServer::Stop() {
  BeginDrain();
  Wait();
}

void HttpServer::Wait() {
  if (stopped_.exchange(true)) return;
  if (acceptor_.joinable()) acceptor_.join();
  {
    MutexLock lock(conn_mu_);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.drain_timeout_ms);
    while (!open_fds_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      conn_cv_.WaitFor(conn_mu_,
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           deadline - now));
    }
    // Past the grace period: shut lingering sockets down so their workers'
    // recv() returns and they exit through the normal path.
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
    while (!open_fds_.empty()) conn_cv_.Wait(conn_mu_);
  }
  pool_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (registry_ != nullptr) registry_->Unregister("net");
}

bool HttpServer::TrackConnection(int fd) {
  MutexLock lock(conn_mu_);
  if (static_cast<int>(open_fds_.size()) >= options_.max_connections) {
    return false;
  }
  open_fds_.insert(fd);
  return true;
}

void HttpServer::UntrackConnection(int fd) {
  {
    MutexLock lock(conn_mu_);
    open_fds_.erase(fd);
  }
  conn_cv_.NotifyAll();
}

void HttpServer::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (draining()) return;
      if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE) {
        continue;  // transient; keep the acceptor alive
      }
      return;
    }
    if (draining()) {
      metrics_.RecordRefusal(RefusalKind::kDraining);
      const std::string resp = BuildResponse(
          503, "application/json", ErrorBody("draining", ""), false);
      WriteAll(fd, resp);
      metrics_.RecordResponse(503);
      ::close(fd);
      continue;
    }
    if (!TrackConnection(fd)) {
      // Over the connection cap: refuse inline from the acceptor so the
      // excess connection never occupies a worker.
      metrics_.RecordRefusal(RefusalKind::kOverCapacity);
      const std::string resp = BuildResponse(
          503, "application/json",
          ErrorBody("over_capacity", "connection limit reached"), false);
      WriteAll(fd, resp);
      metrics_.RecordResponse(503);
      ::close(fd);
      continue;
    }
    pool_->Submit([this, fd] { ServeConnection(fd); });
  }
}

void HttpServer::ServeConnection(int fd) {
  metrics_.ConnectionOpened();
  if (options_.idle_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.idle_timeout_ms / 1000;
    tv.tv_usec = (options_.idle_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  HttpLimits limits;
  limits.max_header_bytes = options_.max_header_bytes;
  limits.max_body_bytes = options_.max_body_bytes;
  RequestParser parser(limits);
  char buf[16 * 1024];

  while (true) {
    // Pump bytes until one full request (or an error) is buffered.
    bool closed = false;
    while (!parser.complete() && !parser.error()) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        metrics_.AddBytesRead(static_cast<uint64_t>(n));
        parser.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (parser.mid_request()) {
          // Torn request: the peer stalled mid-message.
          const std::string resp = BuildResponse(
              408, "application/json",
              ErrorBody("timeout", "request not completed in time"), false);
          if (WriteAll(fd, resp)) {
            metrics_.AddBytesWritten(resp.size());
          }
          metrics_.RecordResponse(408);
        }
        closed = true;  // idle keep-alive connection: close silently
        break;
      }
      closed = true;  // peer closed or hard error
      break;
    }
    if (closed) break;

    if (parser.error()) {
      metrics_.RecordRefusal(RefusalKind::kParse);
      const std::string resp =
          BuildResponse(parser.error_status(), "application/json",
                        ErrorBody("bad_request", parser.error_detail()),
                        false);
      if (WriteAll(fd, resp)) metrics_.AddBytesWritten(resp.size());
      metrics_.RecordResponse(parser.error_status());
      break;
    }

    const int64_t received = NowNanos();
    bool keep_open = true;
    const HttpRequest& req = parser.request();
    Route route = Route::kOther;
    if (req.path == "/v1/batch") {
      route = Route::kBatch;
    } else if (req.path == "/v1/snapshot") {
      route = Route::kSnapshot;
    } else if (req.path == "/healthz") {
      route = Route::kHealth;
    } else if (req.path == "/metrics") {
      route = Route::kMetrics;
    } else if (req.path == "/v1/trace") {
      route = Route::kTrace;
    }
    metrics_.RecordRequest(route);
    // Resolve the request's trace identity before any handler span opens:
    // adopt the caller's id from `x-relview-trace` (a propagated trace is
    // always kept while the tracer is on — the caller already decided it
    // is interesting), else mint one and draw the head-sampling decision
    // here, so the whole span tree under this request follows one verdict.
    TraceContext ctx;
    if (ParseTraceIdHex(req.Header("x-relview-trace"), &ctx.trace_id)) {
      ctx.sampled = GlobalTracer().enabled();
    } else {
      ctx.trace_id = NewTraceId();
      ctx.sampled = GlobalTracer().HeadSample();
    }
    std::string resp;
    uint64_t latency_trace = 0;
    {
      ScopedTraceContext scoped(ctx);
      resp = Handle(req, received, &keep_open);
      latency_trace = CurrentSampledTraceId();
    }
    if (!WriteAll(fd, resp)) break;
    metrics_.AddBytesWritten(resp.size());
    metrics_.RecordLatency(route, NowNanos() - received, latency_trace);
    if (!keep_open) break;
    parser.Next();
  }

  ::close(fd);
  metrics_.ConnectionClosed();
  UntrackConnection(fd);
}

std::string HttpServer::Handle(const HttpRequest& req, int64_t received_nanos,
                               bool* keep_open) {
  *keep_open = req.keep_alive() && !draining();
  int status;
  std::string body;
  std::string content_type = "application/json";
  std::vector<std::string> extra;

  if (req.path == "/v1/batch") {
    if (req.method != "POST") {
      status = 405;
      body = ErrorBody("method_not_allowed", "use POST /v1/batch");
      extra.push_back("Allow: POST");
    } else {
      std::string resp = HandleBatch(req, received_nanos, keep_open);
      return resp;
    }
  } else if (req.path == "/v1/snapshot") {
    if (req.method != "GET") {
      status = 405;
      body = ErrorBody("method_not_allowed", "use GET /v1/snapshot");
      extra.push_back("Allow: GET");
    } else {
      return HandleSnapshot(req);
    }
  } else if (req.path == "/healthz") {
    if (draining()) {
      status = 503;
      body = ErrorBody("draining", "");
    } else {
      status = 200;
      content_type = "text/plain";
      body = "ok\n";
    }
  } else if (req.path == "/metrics") {
    return HandleMetrics(req);
  } else if (req.path == "/v1/trace") {
    if (req.method != "GET") {
      status = 405;
      body = ErrorBody("method_not_allowed", "use GET /v1/trace");
      extra.push_back("Allow: GET");
    } else {
      return HandleTrace(req);
    }
  } else {
    status = 404;
    body = ErrorBody("not_found", req.path);
  }
  const bool ka = *keep_open;
  std::string out = TracedResponse(status, content_type, body, ka, extra);
  metrics_.RecordResponse(status);
  return out;
}

std::string HttpServer::HandleBatch(const HttpRequest& req,
                                    int64_t received_nanos, bool* keep_open) {
  // Root span of the request's tree: router/shard/commit spans all parent
  // back (transitively) to this one, so one request renders as one tree.
  RELVIEW_TRACE_SPAN_N(root, "net.batch");
  WideEvent ev;
  ev.trace_id = CurrentTraceContext().trace_id;
  std::string resp = HandleBatchInner(req, received_nanos, keep_open, &ev);
  root.Finish();
  ev.total_nanos = NowNanos() - received_nanos;
  // Failures are forced through the sampler: the interesting lines are
  // never the ones sampled away.
  GlobalWideEvents().Emit(ev, /*forced=*/ev.http_status >= 500);
  return resp;
}

std::string HttpServer::HandleBatchInner(const HttpRequest& req,
                                         int64_t received_nanos,
                                         bool* keep_open, WideEvent* ev) {
  if (draining()) {
    metrics_.RecordRefusal(RefusalKind::kDraining);
    metrics_.RecordResponse(503);
    *keep_open = false;
    ev->http_status = 503;
    ev->admission = "draining";
    return TracedResponse(503, "application/json", ErrorBody("draining", ""),
                          false);
  }

  auto doc = ParseJson(req.body);
  if (!doc.ok()) {
    metrics_.RecordRefusal(RefusalKind::kParse);
    metrics_.RecordResponse(400);
    ev->http_status = 400;
    ev->admission = "parse_error";
    ev->detail = doc.status().message();
    return TracedResponse(400, "application/json",
                          ErrorBody("bad_json", doc.status().message()),
                          *keep_open);
  }
  const JsonValue* tenant = doc->Get("tenant");
  if (tenant == nullptr || !tenant->is_string()) {
    metrics_.RecordRefusal(RefusalKind::kParse);
    metrics_.RecordResponse(400);
    ev->http_status = 400;
    ev->admission = "parse_error";
    ev->detail = "body needs a \"tenant\" string";
    return TracedResponse(
        400, "application/json",
        ErrorBody("bad_request", "body needs a \"tenant\" string"),
        *keep_open);
  }
  ev->tenant = tenant->string_value();
  ShardedService* svc = tenants_->Find(tenant->string_value());
  if (svc == nullptr) {
    metrics_.RecordResponse(404);
    ev->http_status = 404;
    ev->admission = "unknown_tenant";
    return TracedResponse(
        404, "application/json",
        ErrorBody("unknown_tenant", tenant->string_value()), *keep_open);
  }
  auto updates = ParseWireUpdates(*doc, svc->view_attrs().Count());
  if (!updates.ok()) {
    metrics_.RecordRefusal(RefusalKind::kParse);
    metrics_.RecordResponse(400);
    ev->http_status = 400;
    ev->admission = "parse_error";
    ev->detail = updates.status().message();
    return TracedResponse(
        400, "application/json",
        ErrorBody("bad_request", updates.status().message()), *keep_open);
  }
  ev->batch_size = static_cast<int>(updates->size());

  // Deadline: checked after body parse, right before the write path — the
  // request dies here rather than adding load the client stopped waiting
  // for. `x-relview-deadline-ms` may only tighten the configured default.
  int64_t deadline_ms = options_.request_deadline_ms;
  const std::string& hdr = req.Header("x-relview-deadline-ms");
  if (!hdr.empty()) {
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(hdr.c_str(), &end, 10);
    if (errno == 0 && end != nullptr && *end == '\0' && v >= 0 &&
        (deadline_ms < 0 || v < deadline_ms)) {
      deadline_ms = v;
    }
  }
  if (deadline_ms >= 0 &&
      NowNanos() - received_nanos >= deadline_ms * 1'000'000) {
    metrics_.RecordRefusal(RefusalKind::kDeadline);
    metrics_.RecordResponse(503);
    ev->http_status = 503;
    ev->admission = "deadline";
    return TracedResponse(
        503, "application/json",
        ErrorBody("deadline", "request deadline expired before apply"),
        *keep_open);
  }

  WriteGate::Ticket ticket(*gate_);
  if (!ticket.admitted()) {
    const int retry_after = gate_->RetryAfterSeconds();
    metrics_.RecordRefusal(RefusalKind::kShed429);
    metrics_.RecordResponse(429);
    ev->http_status = 429;
    ev->admission = "shed";
    return TracedResponse(
        429, "application/json",
        "{\"error\":\"shed\",\"retry_after\":" + std::to_string(retry_after) +
            "}",
        *keep_open, {"Retry-After: " + std::to_string(retry_after)});
  }
  ev->admission = "admitted";

  const int64_t t0 = NowNanos();
  const BatchResult result = svc->ApplyBatch(*updates);
  gate_->RecordWriteLatency(NowNanos() - t0);
  // Per-stage attribution for the wide event, aggregated across shards.
  ev->stage_nanos = result.timings.stage_nanos;
  ev->append_nanos = result.timings.append_nanos;
  ev->commit_wait_nanos = result.timings.commit_wait_nanos;
  ev->cohort_batches = result.timings.cohort_batches;
  ev->led_cohort = result.timings.led_cohort;
  ev->shard_mask = result.timings.shard_mask;
  ev->shards_touched = result.timings.shards_touched;
  ev->straggler_shard = result.timings.straggler_shard;
  ev->straggler_nanos = result.timings.straggler_nanos;

  if (result.ok()) {
    metrics_.RecordResponse(200);
    ev->http_status = 200;
    return TracedResponse(
        200, "application/json",
        "{\"status\":\"ok\",\"version\":" + std::to_string(svc->version()) +
            ",\"applied\":" + std::to_string(updates->size()) + "}",
        *keep_open);
  }
  ev->detail = result.status.message();
  const StatusCode code = result.status.code();
  if (code == StatusCode::kInternal || code == StatusCode::kCorruption) {
    // Durability failure (journal append/fsync, store rotation): nothing
    // was acked or published. A failed fsync also poisons the shard's
    // store until the process restarts and recovers it. 503 so clients
    // retry against a recovered process rather than treating it as a
    // semantic verdict.
    metrics_.RecordRefusal(RefusalKind::kDurability);
    metrics_.RecordResponse(503);
    ev->http_status = 503;
    return TracedResponse(
        503, "application/json",
        ErrorBody("durability", result.status.message()), *keep_open);
  }
  metrics_.RecordResponse(409);
  ev->http_status = 409;
  std::string body = "{\"status\":\"rejected\",\"failed_index\":" +
                     std::to_string(result.failed_index) + ",\"code\":\"" +
                     StatusCodeName(code) + "\",\"detail\":\"" +
                     JsonEscape(result.status.message()) + "\"}";
  return TracedResponse(409, "application/json", body, *keep_open);
}

std::string HttpServer::HandleSnapshot(const HttpRequest& req) {
  const std::string tenant = req.QueryParam("tenant");
  if (tenant.empty()) {
    metrics_.RecordResponse(400);
    return TracedResponse(
        400, "application/json",
        ErrorBody("bad_request", "need ?tenant=<name>"), !draining());
  }
  ShardedService* svc = tenants_->Find(tenant);
  if (svc == nullptr) {
    metrics_.RecordResponse(404);
    return TracedResponse(404, "application/json",
                          ErrorBody("unknown_tenant", tenant), !draining());
  }
  const ShardedSnapshot snap = svc->Snapshot();
  std::string body = "{\"tenant\":\"" + JsonEscape(tenant) +
                     "\",\"version\":" + std::to_string(snap.version) +
                     ",\"shards\":" + std::to_string(snap.shards.size()) +
                     ",\"rows\":" + ShardRowsJson(snap, /*database=*/false);
  if (req.QueryParam("include") == "database") {
    body += ",\"database\":" + ShardRowsJson(snap, /*database=*/true);
  }
  body += "}";
  metrics_.RecordResponse(200);
  return TracedResponse(200, "application/json", body, !draining());
}

std::string HttpServer::HandleMetrics(const HttpRequest& req) {
  std::string body;
  std::string content_type;
  if (req.QueryParam("format") == "json") {
    content_type = "application/json";
    body = registry_ != nullptr ? registry_->RenderJson()
                                : "{\"net\":" + metrics_.ToJson() + "}";
  } else {
    content_type = "text/plain; version=0.0.4";
    if (registry_ != nullptr) {
      body = registry_->RenderPrometheus();
    } else {
      TelemetryRegistry local;
      local.Register("net", [this] { return metrics_.Collect(); });
      body = local.RenderPrometheus();
    }
  }
  metrics_.RecordResponse(200);
  return TracedResponse(200, content_type, body, !draining());
}

std::string HttpServer::HandleTrace(const HttpRequest& req) {
  // Export first, then optionally clear: ?clear=1 lets a smoke test or an
  // operator take one consistent dump per incident without a racing
  // scrape re-reading the same spans.
  std::string body = GlobalTracer().ExportChromeTrace();
  if (req.QueryParam("clear") == "1") GlobalTracer().Clear();
  metrics_.RecordResponse(200);
  return TracedResponse(200, "application/json", body, !draining());
}

}  // namespace net
}  // namespace relview
