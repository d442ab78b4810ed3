//! Property-style tests: N-Quads serialization must round-trip arbitrary
//! terms (including escapes and unicode), and literal canonicalisation
//! must be idempotent. Cases are generated deterministically from seeded
//! pseudo-random streams (std-only; the build has no crates.io access).

use rdf_model::{nquads, GraphName, Iri, Literal, Quad, Term};
use twittergen::rng::Rng;

/// Characters the writer supports: everything except lone control chars
/// (we do escape \n, \r, \t). Includes quotes, backslash, and unicode.
const CHARS: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '"', '\\', '\n', '\r', '\t', '<', '>', '{', '}', '|',
    '^', '`', 'é', 'ß', '中', '文', '🦀', '∀', '‖', '\u{200b}',
];

fn rand_string(r: &mut Rng) -> String {
    let len = r.gen_range(0..12);
    (0..len)
        .map(|_| CHARS[r.gen_range(0..CHARS.len())])
        .collect()
}

fn rand_ascii(r: &mut Rng, alphabet: &str, max_len: usize) -> String {
    let bytes = alphabet.as_bytes();
    let len = r.gen_range(0..max_len);
    (0..len)
        .map(|_| bytes[r.gen_range(0..bytes.len())] as char)
        .collect()
}

fn rand_iri(r: &mut Rng) -> Iri {
    let tail = rand_ascii(r, "abcdefghij0123456789/._-", 20);
    Iri::new(format!("http://x/a{tail}"))
}

fn rand_literal(r: &mut Rng) -> Literal {
    match r.gen_range(0..6) {
        0 => Literal::string(rand_string(r)),
        1 => Literal::int(r.next_u64() as i32),
        2 => Literal::integer(r.next_u64() as i64),
        3 => Literal::boolean(r.next_u64() & 1 == 0),
        4 => {
            let value = format!("w{}", rand_ascii(r, "abcdefgh", 7));
            let tag = if r.next_u64() & 1 == 0 { "en" } else { "de-at" };
            Literal::lang_string(value, tag)
        }
        _ => Literal::typed(rand_string(r), rand_iri(r)),
    }
}

fn rand_term(r: &mut Rng) -> Term {
    match r.gen_range(0..3) {
        0 => Term::Iri(rand_iri(r)),
        1 => Term::blank(format!("b{}", rand_ascii(r, "ABCxyz_019", 8))),
        _ => Term::Literal(rand_literal(r)),
    }
}

fn rand_quad(r: &mut Rng) -> Quad {
    let subject = if r.next_u64() & 1 == 0 {
        Term::Iri(rand_iri(r))
    } else {
        Term::blank(format!("s{}", rand_ascii(r, "ABCxyz019", 8)))
    };
    let graph = if r.next_u64() & 1 == 0 {
        GraphName::from(rand_iri(r))
    } else {
        GraphName::Default
    };
    Quad::new(subject, Term::Iri(rand_iri(r)), rand_term(r), graph)
        .expect("positions are valid by construction")
}

#[test]
fn serialize_parse_roundtrip() {
    for case in 0..256u64 {
        let mut r = Rng::seed_from_u64(case);
        let n = r.gen_range(0..20);
        let quads: Vec<Quad> = (0..n).map(|_| rand_quad(&mut r)).collect();
        let text = nquads::serialize(&quads);
        let parsed = nquads::parse(&text).expect("own output parses");
        assert_eq!(parsed, quads, "case {case}");
    }
}

#[test]
fn escape_unescape_roundtrip() {
    for case in 0..256u64 {
        let mut r = Rng::seed_from_u64(case);
        let s = rand_string(&mut r);
        assert_eq!(
            nquads::unescape(&nquads::escape(&s)).expect("unescape"),
            s,
            "case {case}"
        );
    }
}

#[test]
fn canonicalisation_is_idempotent() {
    for case in 0..256u64 {
        let mut r = Rng::seed_from_u64(case);
        let lit = rand_literal(&mut r);
        let once = lit.canonical().into_owned();
        let twice = once.canonical().into_owned();
        assert_eq!(once, twice, "case {case}");
    }
}

#[test]
fn dictionary_roundtrips_terms() {
    for case in 0..256u64 {
        let mut r = Rng::seed_from_u64(case);
        let n = r.gen_range(0..30);
        let terms: Vec<Term> = (0..n).map(|_| rand_term(&mut r)).collect();
        let mut dict = rdf_model::Dictionary::new();
        for term in &terms {
            let id = dict.intern(term);
            let back = dict.lookup(id).expect("interned");
            // The stored term is the canonical form; interning it again
            // must return the same id.
            assert_eq!(dict.intern(&back.clone()), id);
            assert_eq!(dict.get(term), Some(id));
        }
    }
}
