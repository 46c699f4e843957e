//! Property-based tests on the JSON codec, URL decoding and HTTP request
//! framing.

use maprat_server::http::{parse_query, parse_request, percent_decode, Request};
use maprat_server::Json;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;

/// Strategy for arbitrary JSON trees of bounded depth.
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1e12f64..1e12).prop_map(Json::Num),
        "[a-zA-Z0-9 \\\\\"\n\t♂é🎓]{0,12}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            proptest::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(|m| Json::Obj(m.into_iter().collect::<BTreeMap<_, _>>())),
        ]
    })
}

proptest! {
    /// render → parse is the identity (up to float formatting, which the
    /// renderer keeps exact for the magnitudes generated here).
    #[test]
    fn json_round_trip(value in arb_json()) {
        let rendered = Json::parse(&value.render());
        prop_assert!(rendered.is_ok(), "render produced unparseable output");
        // Numbers re-render identically, so a second round trip is a fixed
        // point.
        let once = rendered.unwrap();
        prop_assert_eq!(Json::parse(&once.render()).unwrap(), once);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn json_parse_total(input in ".{0,64}") {
        let _ = Json::parse(&input);
    }

    /// Percent-decoding never panics and is the inverse of a simple
    /// encoder over arbitrary byte-ish strings.
    #[test]
    fn percent_round_trip(s in "[a-zA-Z0-9 /?&=+%éß♀]{0,32}") {
        let encoded: String = s
            .bytes()
            .map(|b| {
                if b.is_ascii_alphanumeric() {
                    (b as char).to_string()
                } else {
                    format!("%{b:02X}")
                }
            })
            .collect();
        prop_assert_eq!(percent_decode(&encoded), s);
    }

    /// percent_decode is total on arbitrary input.
    #[test]
    fn percent_decode_total(s in ".{0,48}") {
        let _ = percent_decode(&s);
    }

    /// Query strings parse every `k=v` pair, last value winning.
    #[test]
    fn query_pairs(keys in proptest::collection::vec("[a-z]{1,4}", 0..6)) {
        let qs: String = keys
            .iter()
            .enumerate()
            .map(|(i, k)| format!("{k}={i}"))
            .collect::<Vec<_>>()
            .join("&");
        let parsed = parse_query(&qs);
        for (i, k) in keys.iter().enumerate() {
            let last = keys.iter().rposition(|x| x == k).unwrap();
            if i == last {
                let expected = i.to_string();
                prop_assert_eq!(parsed.get(k), Some(&expected));
            }
        }
    }
}

/// Percent-encodes every byte except ASCII alphanumerics (and `/` when
/// `keep_slash`), the inverse of [`percent_decode`].
fn percent_encode(s: &str, keep_slash: bool) -> String {
    s.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() || (keep_slash && b == b'/') {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

/// A well-formed request and its expected decoding.
#[derive(Debug, Clone)]
struct WireRequest {
    method: String,
    path: String,
    query: BTreeMap<String, String>,
    headers: BTreeMap<String, String>,
    body: Vec<u8>,
}

impl WireRequest {
    fn encode(&self) -> Vec<u8> {
        let mut target = percent_encode(&self.path, true);
        if !self.query.is_empty() {
            let pairs: Vec<String> = self
                .query
                .iter()
                .map(|(k, v)| format!("{}={}", percent_encode(k, false), percent_encode(v, false)))
                .collect();
            target.push('?');
            target.push_str(&pairs.join("&"));
        }
        let mut wire = format!("{} {target} HTTP/1.1\r\n", self.method);
        for (name, value) in &self.headers {
            wire.push_str(&format!("{name}: {value}\r\n"));
        }
        if !self.body.is_empty() {
            wire.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        }
        wire.push_str("\r\n");
        let mut bytes = wire.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

fn arb_wire_request() -> impl Strategy<Value = WireRequest> {
    (
        prop_oneof![Just("GET"), Just("POST"), Just("PUT"), Just("DELETE")],
        proptest::collection::vec("[a-zA-Z0-9 ._~é?#%+-]{1,8}", 0..4),
        proptest::collection::btree_map("[a-z_]{1,6}", "[a-zA-Z0-9 &=+%/?é]{0,10}", 0..5),
        proptest::collection::btree_map("[a-z][a-z0-9-]{0,10}", "[a-zA-Z0-9,;=/.]{0,16}", 0..5),
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(method, segments, query, headers, body)| WireRequest {
            method: method.to_string(),
            path: format!("/{}", segments.join("/")),
            query,
            // An `x-` prefix keeps generated names clear of the framing
            // headers the parser interprets.
            headers: headers
                .into_iter()
                .map(|(name, value)| (format!("x-{name}"), value))
                .collect(),
            body,
        })
}

/// Request-shaped byte soup: random concatenations of HTTP tokens,
/// separators, edge-case numbers and arbitrary bytes. Uniformly random
/// bytes are almost never valid UTF-8 up to the first line end, so they
/// only reach the parser's first check; soup reaches the header, framing
/// and body paths.
fn arb_request_soup() -> impl Strategy<Value = Vec<u8>> {
    let token = prop_oneof![
        Just(b"GET ".to_vec()),
        Just(b"POST ".to_vec()),
        Just(b"/api/v1/explain".to_vec()),
        Just(b"?q=a+b&x=%41%4".to_vec()),
        Just(b" HTTP/1.1".to_vec()),
        Just(b" HTTP/1.0".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(b"\n".to_vec()),
        Just(b": ".to_vec()),
        Just(b"Content-Length".to_vec()),
        Just(b"Connection: keep-alive".to_vec()),
        Just(b"0".to_vec()),
        Just(b"7".to_vec()),
        Just(b"-1".to_vec()),
        Just(b"18446744073709551616".to_vec()),
        Just("é\u{7f}\t".as_bytes().to_vec()),
        (0u8..128).prop_map(|b| vec![b]),
        any::<u8>().prop_map(|b| vec![b]),
    ];
    proptest::collection::vec(token, 0..24).prop_map(|parts| parts.concat())
}

/// Parses `bytes` as one request; the decoder must return, never panic.
fn parse(bytes: &[u8]) -> Option<Request> {
    parse_request(&mut Cursor::new(bytes)).ok().flatten()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse_request` is total on arbitrary bytes.
    #[test]
    fn http_parse_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse(&bytes);
    }

    /// `parse_request` is total on request-shaped byte soup.
    #[test]
    fn http_parse_total_on_request_soup(bytes in arb_request_soup()) {
        let _ = parse(&bytes);
    }

    /// `parse_request` is total on arbitrary text that starts like a
    /// request line (the parser gets past its first checks).
    #[test]
    fn http_parse_total_on_request_like_text(
        method in "[A-Z]{0,7}",
        rest in ".{0,96}",
        cl in 0usize..64,
    ) {
        let text = format!("{method} /{rest} HTTP/1.1\r\nContent-Length: {cl}\r\n\r\n{rest}");
        let _ = parse(text.as_bytes());
    }

    /// Truncating a well-formed request anywhere, or flipping any one of
    /// its bits, never makes the decoder panic.
    #[test]
    fn http_parse_total_on_truncated_and_bit_flipped(
        req in arb_wire_request(),
        cut in any::<usize>(),
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        let wire = req.encode();
        let _ = parse(&wire[..cut % (wire.len() + 1)]);
        let mut flipped = wire.clone();
        let at = flip % flipped.len();
        flipped[at] ^= 1 << bit;
        let _ = parse(&flipped);
    }

    /// A well-formed request round-trips: method, path, query, headers
    /// and body come back as sent.
    #[test]
    fn http_request_round_trip(req in arb_wire_request()) {
        let wire = req.encode();
        let parsed = parse(&wire);
        prop_assert!(parsed.is_some(), "well-formed request rejected: {:?}", String::from_utf8_lossy(&wire));
        let parsed = parsed.unwrap();
        prop_assert_eq!(&parsed.method, &req.method);
        prop_assert_eq!(&parsed.path, &req.path);
        let query: HashMap<String, String> = req.query.clone().into_iter().collect();
        prop_assert_eq!(&parsed.query, &query);
        for (name, value) in &req.headers {
            prop_assert_eq!(parsed.headers.get(name), Some(value));
        }
        let framing = usize::from(!req.body.is_empty());
        prop_assert_eq!(parsed.headers.len(), req.headers.len() + framing);
        prop_assert_eq!(&parsed.body, &req.body);
    }
}
