//! Serving-layer hot path: router dispatch + JSON rendering per route,
//! and a full loopback socket round trip (connect once, keep-alive GETs).

use bench::timing::{black_box, Harness};
use drafts_core::predictor::DraftsConfig;
use drafts_core::service::{DraftsService, ServiceConfig};
use server::{http, Metrics, Router, Server, ServerConfig};
use spotmarket::archetype::Archetype;
use spotmarket::tracegen::{generate_with_archetype, TraceConfig};
use spotmarket::{Az, Catalog, Combo, DAY};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn service() -> DraftsService {
    let catalog = Catalog::standard();
    let mut svc = DraftsService::new(ServiceConfig {
        drafts: DraftsConfig {
            changepoint: None,
            autocorr: false,
            duration_stride: 6,
            ..DraftsConfig::default()
        },
        ..ServiceConfig::default()
    });
    let combo = Combo::new(
        Az::parse("us-east-1c").unwrap(),
        catalog.type_id("c3.4xlarge").unwrap(),
    );
    svc.register(generate_with_archetype(
        combo,
        catalog,
        &TraceConfig::days(30, 4242),
        Archetype::Choppy,
    ));
    svc
}

fn request(target: &str) -> http::Request {
    let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
    http::read_request(&mut BufReader::new(raw.as_bytes())).unwrap()
}

/// One keep-alive GET over an open connection; returns the body length.
fn keepalive_get(reader: &mut BufReader<TcpStream>, path: &str) -> usize {
    reader
        .get_mut()
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: b\r\n\r\n").as_bytes())
        .unwrap();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            content_length = v.parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    body.len()
}

fn main() {
    let router = Router::new(Arc::new(service()), 20 * DAY);
    let metrics = Metrics::new();
    // Install the span tracer exactly as a server worker would: the
    // handle_* numbers measure the instrumented production path.
    let _tracing = metrics.tracer().install();
    // Warm the service's bucket cache so the bench measures serving, not
    // the first QBETS graph computation.
    router.handle(&request("/v1/health"), &metrics);

    let mut h = Harness::new("serve");
    let graphs = request("/v1/graphs/us-east-1/us-east-1c/c3.4xlarge?p=0.95");
    h.bench("handle_graphs", || {
        black_box(router.handle(black_box(&graphs), &metrics))
    });
    let bid = request("/v1/bid?duration=3600&p=0.95");
    h.bench("handle_bid", || {
        black_box(router.handle(black_box(&bid), &metrics))
    });
    let health = request("/v1/health");
    h.bench("handle_health", || {
        black_box(router.handle(black_box(&health), &metrics))
    });

    let srv = Server::start(
        Router::new(Arc::new(service()), 20 * DAY),
        ServerConfig {
            // The calibrated sample loop issues far more than the serving
            // default of requests on this one connection.
            max_requests_per_conn: usize::MAX,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let conn = TcpStream::connect(srv.addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(conn);
    h.bench("socket_roundtrip_bid", || {
        black_box(keepalive_get(&mut reader, "/v1/bid?duration=3600&p=0.95"))
    });
    drop(reader);
    srv.shutdown();
}
