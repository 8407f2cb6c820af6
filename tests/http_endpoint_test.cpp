// Embedded HTTP scrape endpoint: request parsing and status codes over a
// real loopback socket, the standard telemetry routes, and — the case the
// endpoint exists for — concurrent /metrics scrapes while eight threads
// churn the admission controller (run under TSan in CI).
#include "telemetry/http_endpoint.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "admission/telemetry.hpp"
#include "analysis/engine.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "reconfig/actuator.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/conformance.hpp"
#include "telemetry/envelope.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"
#include "traffic/workload.hpp"
#include "util/units.hpp"

namespace ubac::telemetry {
namespace {

/// Blocking one-shot HTTP client: connect, send `request`, read to EOF
/// (the endpoint always closes the connection). Empty string on failure.
std::string http_roundtrip(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& target) {
  return http_roundtrip(port, "GET " + target +
                                  " HTTP/1.1\r\nHost: localhost\r\n"
                                  "Connection: close\r\n\r\n");
}

int status_of(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..."
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

TEST(HttpEndpoint, ServesRoutesAndStatusCodes) {
  HttpEndpoint::Options options;
  options.port = 0;  // ephemeral
  HttpEndpoint endpoint(options);
  endpoint.handle("/hello", [](const HttpRequest& req) {
    return HttpResponse::text("hi " + req.query_get("name", "world"));
  });
  endpoint.start();
  ASSERT_NE(endpoint.port(), 0);

  std::string response = get(endpoint.port(), "/hello");
  EXPECT_EQ(status_of(response), 200);
  EXPECT_NE(response.find("\r\n\r\nhi world"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);

  // Query parsing feeds the handler.
  response = get(endpoint.port(), "/hello?name=ubac");
  EXPECT_NE(response.find("hi ubac"), std::string::npos);

  EXPECT_EQ(status_of(get(endpoint.port(), "/nope")), 404);
  // POST is a first-class verb: a form-urlencoded body lands in the same
  // query map a GET query string does.
  response = http_roundtrip(endpoint.port(),
                            "POST /hello HTTP/1.1\r\nHost: x\r\n"
                            "Content-Type: application/x-www-form-urlencoded"
                            "\r\nContent-Length: 9\r\n\r\nname=post");
  EXPECT_EQ(status_of(response), 200);
  EXPECT_NE(response.find("hi post"), std::string::npos);
  EXPECT_EQ(status_of(http_roundtrip(
                endpoint.port(), "PUT /hello HTTP/1.1\r\nHost: x\r\n\r\n")),
            405);
  EXPECT_EQ(status_of(http_roundtrip(endpoint.port(), "garbage\r\n\r\n")),
            400);
  // Oversized request lines bounce with 431 instead of buffering forever.
  EXPECT_EQ(status_of(http_roundtrip(
                endpoint.port(),
                "GET /" + std::string(32 * 1024, 'a') + " HTTP/1.1\r\n\r\n")),
            431);

  EXPECT_GE(endpoint.requests_served(), 6u);
  endpoint.stop();
  EXPECT_FALSE(endpoint.running());
  // stop() is idempotent and final.
  endpoint.stop();
  EXPECT_TRUE(get(endpoint.port(), "/hello").empty());
}

TEST(HttpEndpoint, StandardRoutesServeTelemetry) {
  MetricsRegistry registry;
  registry.gauge("ubac_test_gauge", "a gauge").set(4.5);
  registry.counter("ubac_test_total", "a counter").add(7);
  TelemetrySampler::Options sampler_options;
  sampler_options.ticks_per_window = 1;
  TelemetrySampler sampler(registry, sampler_options);
  AlertEngine alerts;
  sampler.set_alert_engine(&alerts);
  sampler.tick_now();

  HttpEndpoint endpoint;
  install_standard_routes(endpoint, registry, &sampler, &alerts);
  endpoint.start();

  const std::string metrics = get(endpoint.port(), "/metrics");
  EXPECT_EQ(status_of(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("ubac_test_gauge 4.5"), std::string::npos);
  EXPECT_NE(metrics.find("ubac_test_total 7"), std::string::npos);

  const std::string health = get(endpoint.port(), "/healthz");
  EXPECT_EQ(status_of(health), 200);
  EXPECT_NE(health.find("\"sampler_ticks\":1"), std::string::npos);

  // /series without a name is the index: every registered series name
  // with its label-set count plus the ring geometry.
  const std::string names = get(endpoint.port(), "/series");
  EXPECT_EQ(status_of(names), 200);
  EXPECT_NE(names.find("ubac_test_gauge"), std::string::npos);
  EXPECT_NE(names.find("ubac_test_total"), std::string::npos);
  EXPECT_NE(names.find("\"window_capacity\":"), std::string::npos);
  EXPECT_NE(names.find("\"ticks_per_window\":1"), std::string::npos);
  EXPECT_NE(names.find("\"windows_started\":1"), std::string::npos);
  EXPECT_NE(names.find("\"series\":1"), std::string::npos);
  const std::string series =
      get(endpoint.port(), "/series?name=ubac_test_gauge");
  EXPECT_NE(series.find("\"last\":4.5"), std::string::npos);
  EXPECT_EQ(status_of(get(endpoint.port(), "/series?name=ubac_test_gauge"
                                           "&window=bogus")),
            400);

  const std::string alerts_body = get(endpoint.port(), "/alerts");
  EXPECT_EQ(status_of(alerts_body), 200);
  EXPECT_NE(alerts_body.find("\"alerts\":["), std::string::npos);

  endpoint.stop();
}

TEST(HttpEndpoint, ConformanceRoutesServeMonitorState) {
  ArrivalRecorder recorder;
  ConformanceMonitor monitor(recorder);
  monitor.set_class_envelope(0, traffic::LeakyBucket(640.0, units::kbps(32)));

  // One conformant flow, one offender at ~3x the declared envelope.
  recorder.on_admit(7, 0);
  recorder.on_admit(9, 0);
  const std::int64_t t0 = 1'000'000'000;
  recorder.record(7, 640.0, t0);
  recorder.record(9, 3.0 * (640.0 + 32'000.0), t0);
  monitor.check(t0 + 1);

  HttpEndpoint endpoint;
  install_conformance_routes(endpoint, monitor);
  endpoint.start();

  const std::string summary = get(endpoint.port(), "/conformance");
  EXPECT_EQ(status_of(summary), 200);
  EXPECT_NE(summary.find("\"checks\":1"), std::string::npos);
  EXPECT_NE(summary.find("\"violating\":1"), std::string::npos);

  // Worst-first ordering: the offender leads even with top=1.
  const std::string worst = get(endpoint.port(), "/conformance/flows?top=1");
  EXPECT_EQ(status_of(worst), 200);
  EXPECT_NE(worst.find("\"flow\":9"), std::string::npos);
  EXPECT_EQ(worst.find("\"flow\":7"), std::string::npos);
  const std::string all = get(endpoint.port(), "/conformance/flows");
  EXPECT_NE(all.find("\"flow\":7"), std::string::npos);
  EXPECT_NE(all.find("\"flow\":9"), std::string::npos);

  EXPECT_EQ(status_of(get(endpoint.port(), "/conformance/flows?top=-1")),
            400);
  endpoint.stop();
}

// POST /reconfig: a malformed or invalid policy answers 400 and the
// running policy stays in force; a valid update is applied and echoed.
TEST(HttpEndpoint, ReconfigRouteRejectsInvalidPolicy) {
  const auto topo = net::line(4);
  const net::ServerGraph graph(topo, 6u);
  const traffic::LeakyBucket bucket(640.0, units::kbps(32));
  const Seconds deadline = units::milliseconds(100);
  const auto classes = traffic::ClassSet::two_class(bucket, deadline, 0.05);
  const auto demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  for (const auto& d : demands)
    routes.push_back(
        graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
  admission::AdmissionController ctl(
      graph, classes, admission::RoutingTable(demands, routes));
  analysis::AnalysisEngine engine(graph, 0.05, bucket, deadline);
  for (const auto& route : routes) engine.add_route(route);
  ASSERT_TRUE(engine.solve().safe());
  AlertEngine alerts;
  reconfig::ReconfigurationActuator actuator(engine, ctl, alerts,
                                             reconfig::ActuationPolicy{});

  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  reconfig::install_reconfig_route(endpoint, actuator);
  endpoint.start();
  auto post = [&](const std::string& query) {
    return http_roundtrip(endpoint.port(), "POST /reconfig?" + query +
                                               " HTTP/1.1\r\nHost: x\r\n"
                                               "Content-Length: 0\r\n\r\n");
  };

  const std::string inverted = post("search_lo=0.5&search_hi=0.2");
  EXPECT_EQ(status_of(inverted), 400);
  EXPECT_NE(inverted.find("search_lo <= search_hi"), std::string::npos);
  EXPECT_EQ(status_of(post("resolution=0")), 400);
  EXPECT_EQ(status_of(post("max_step=abc")), 400);
  EXPECT_EQ(status_of(post("cooldown_s=-1")), 400);
  EXPECT_EQ(status_of(post("cooldown_s=nan")), 400);
  EXPECT_DOUBLE_EQ(actuator.policy().search_lo, 0.01);
  EXPECT_DOUBLE_EQ(actuator.policy().search_hi, 0.95);
  EXPECT_DOUBLE_EQ(actuator.policy().resolution, 1e-3);

  const std::string ok = post("search_lo=0.2&search_hi=0.5");
  EXPECT_EQ(status_of(ok), 200);
  EXPECT_NE(ok.find("\"search_hi\":0.5"), std::string::npos);
  EXPECT_DOUBLE_EQ(actuator.policy().search_lo, 0.2);
  EXPECT_EQ(status_of(get(endpoint.port(), "/reconfig")), 200);
  endpoint.stop();
}

// The acceptance scenario: scrapes must stay consistent while admission
// churns at full concurrency. 8 worker threads admit/release against the
// controller; 2 scraper threads hammer GET /metrics and /healthz the
// whole time. TSan (UBAC_SANITIZE=thread; CI runs this suite under it)
// checks the ordering; the assertions check nothing tears.
TEST(HttpEndpointConcurrent, MetricsScrapesDuringAdmissionChurn) {
  const auto topo = net::line(4);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = traffic::ClassSet::two_class(
      traffic::LeakyBucket(640.0, units::kbps(32)), units::milliseconds(100),
      0.32);
  const auto demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  for (const auto& d : demands)
    routes.push_back(
        graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
  admission::AdmissionController ctl(
      graph, classes, admission::RoutingTable(demands, routes));
  MetricsRegistry registry;
  admission::ControllerTelemetry ctl_telemetry(registry, "churn");
  ctl.attach_telemetry(&ctl_telemetry);

  TelemetrySampler::Options sampler_options;
  sampler_options.tick = std::chrono::milliseconds(2);
  TelemetrySampler sampler(registry, sampler_options);
  sampler.add_tick_hook(
      admission::utilization_gauge_hook(registry, "churn", ctl));
  HttpEndpoint endpoint;
  install_standard_routes(endpoint, registry, &sampler, nullptr);
  sampler.start();
  endpoint.start();
  const std::uint16_t port = endpoint.port();

  constexpr int kChurnThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::atomic<bool> scraping{true};
  std::atomic<std::uint64_t> good_scrapes{0};

  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s)
    scrapers.emplace_back([&, s] {
      while (scraping.load(std::memory_order_relaxed)) {
        const std::string response =
            get(port, s == 0 ? "/metrics" : "/healthz");
        if (status_of(response) == 200)
          good_scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::vector<std::thread> churners;
  for (int t = 0; t < kChurnThreads; ++t)
    churners.emplace_back([&, t] {
      std::vector<traffic::FlowId> held;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto& d = demands[(t + i) % demands.size()];
        const auto decision = ctl.request(d.src, d.dst, d.class_index);
        if (decision.admitted()) held.push_back(decision.flow_id);
        if (held.size() > 8 || (!held.empty() && i % 3 == 0)) {
          ctl.release(held.back());
          held.pop_back();
        }
      }
      for (const auto id : held) ctl.release(id);
    });

  for (auto& t : churners) t.join();
  // Keep scraping through at least one more sampler tick, then wind down.
  const std::uint64_t ticks = sampler.ticks();
  while (sampler.ticks() == ticks) std::this_thread::yield();
  scraping.store(false, std::memory_order_relaxed);
  for (auto& t : scrapers) t.join();
  endpoint.stop();
  sampler.stop();

  EXPECT_GT(good_scrapes.load(), 0u);
  // Quiescent end state: every flow released, nothing reserved.
  EXPECT_EQ(ctl.active_flows(), 0u);
  const std::string last = to_prometheus(registry.snapshot());
  EXPECT_NE(last.find("ubac_admission_decisions_total"), std::string::npos);
}

}  // namespace
}  // namespace ubac::telemetry
