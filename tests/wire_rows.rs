//! Query replies on the wire: gomd encodes a query's result tuples
//! straight into the reply frame, and those bytes must be exactly the
//! `Reply::Rows` of the rendered rows (a symbol as its interned string, an
//! integer in decimal) that clients decode. Quoted constants in a query
//! keep their UTF-8 text, and an integer literal outside `i64` is a parse
//! error, not a wrapped value.

use gom_bench::{synth_manager, SynthParams};
use gom_deductive::{Const, Database, Error};
use gom_server::server::{query_frame, serve, Config};
use gom_server::wire::{read_frame, ErrorKind, EvolutionOp, Reply, Request};
use gom_server::Client;
use std::time::Duration;

/// The rows of `query` rendered one `String` per cell, as `Reply::Rows`.
fn rendered(db: &mut Database, query: &str) -> Reply {
    let (names, rows) = db.query_text(query).expect("query");
    let rows = rows
        .iter()
        .map(|t| {
            t.iter()
                .map(|c| c.display(db.interner()).to_string())
                .collect()
        })
        .collect();
    Reply::Rows { names, rows }
}

/// The payload of the frame gomd builds for `query`.
fn direct(db: &mut Database, query: &str) -> Vec<u8> {
    let (frame, status) = query_frame(db, query);
    assert_eq!(status, "rows", "{query}");
    read_frame(&mut frame.as_slice())
        .expect("a sealed frame")
        .expect("one frame")
}

#[test]
fn synth500_attr_reply_is_the_rendered_rows_byte_for_byte() {
    let (mut mgr, _) = synth_manager(SynthParams {
        types: 500,
        ..Default::default()
    });
    let db = &mut mgr.meta.db;
    for query in ["Attr(T, N, D)", "Type(T, N, S)", "Attr(T, 'a0_0', D)"] {
        let reply = rendered(db, query);
        assert_eq!(direct(db, query), reply.encode(), "{query}");
    }
    match rendered(db, "Attr(T, N, D)") {
        Reply::Rows { rows, .. } => assert!(rows.len() >= 1500, "{} rows", rows.len()),
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn edge_replies_are_the_rendered_rows_byte_for_byte() {
    let mut db = Database::new();
    db.load(
        "base R(a, b).\n\
         R('', 0).\n\
         R('größe', -1).\n\
         R('車', -9223372036854775808).\n\
         R(x, 9223372036854775807).\n",
    )
    .expect("load");
    for query in [
        "R(A, B)",
        "R(A, -9223372036854775808)",
        "R('', B)",
        "R(A, 5)",                   // zero rows
        "R(x, 9223372036854775807)", // ground and true: one row, no column
        "R(x, 1)",                   // ground and false: no rows, no column
    ] {
        let reply = rendered(&mut db, query);
        assert_eq!(direct(&mut db, query), reply.encode(), "{query}");
    }
    match rendered(&mut db, "R(x, 9223372036854775807)") {
        Reply::Rows { names, rows } => {
            assert!(names.is_empty());
            assert_eq!(rows, vec![Vec::<String>::new()]);
        }
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn quoted_constants_keep_their_utf8_text() {
    let mut db = Database::new();
    db.load("base R(a, b).\nR('Straße', 2).").expect("load");
    let r = db.pred_id("R").expect("R");
    let grosse = db.constant("größe");
    db.insert(r, vec![grosse, Const::Int(1)]).expect("insert");
    let (_, rows) = db.query_text("R('größe', B)").expect("query");
    assert_eq!(rows.len(), 1, "the inserted fact answers the quoted query");
    assert_eq!(
        rendered(&mut db, "R(A, 2)"),
        Reply::Rows {
            names: vec!["A".into()],
            rows: vec![vec!["Straße".into()]],
        }
    );
}

#[test]
fn integer_literals_are_bounded_by_i64() {
    let mut db = Database::new();
    db.load("base R(a).\nR(-9223372036854775808).")
        .expect("load");
    let (_, rows) = db.query_text("R(A)").expect("query");
    assert_eq!(rows[0].get(0), Const::Int(i64::MIN));
    for bad in ["R(9223372036854775808)", "R(99999999999999999999)"] {
        assert!(
            matches!(db.query_text(bad), Err(Error::Parse { .. })),
            "{bad} must not parse"
        );
    }
}

#[test]
fn gomd_answers_a_non_ascii_attribute_and_refuses_an_overflowing_literal() {
    let dir = std::env::temp_dir().join(format!("gomd_wire_rows_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let socket = dir.join("gomd.sock");
    let server = serve(Config::in_memory(&socket)).expect("server start");
    let mut client = Client::connect_within(&socket, Duration::from_secs(5)).expect("connect");
    let define =
        "schema S is\n  type Car is\n    [ speed : float; ]\n  end type Car;\nend schema S;\n";
    let mut send = |req: Request| client.request(&req).expect("request");
    assert!(matches!(
        send(Request::Op(EvolutionOp::Define(define.into()))),
        Reply::Committed { .. }
    ));
    assert!(matches!(
        send(Request::Op(EvolutionOp::AddAttr {
            ty: "Car@S".into(),
            name: "größe".into(),
            domain: "float".into(),
        })),
        Reply::Committed { .. }
    ));
    match send(Request::Query("Attr(T, 'größe', D)".into())) {
        Reply::Rows { rows, .. } => assert_eq!(rows.len(), 1, "{rows:?}"),
        other => panic!("expected rows, got {other:?}"),
    }
    match send(Request::Query("Attr(T, N, D), N = 'größe'".into())) {
        Reply::Rows { names, rows } => {
            let n = names.iter().position(|c| c == "N").expect("column N");
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][n], "größe");
        }
        other => panic!("expected rows, got {other:?}"),
    }
    match send(Request::Query("Attr(T, N, 9223372036854775808)".into())) {
        Reply::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected a typed bad-request, got {other:?}"),
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
