//! Golden contract for inference and training: the briefs a fixed tiny
//! model writes, the raw outputs of every joint variant's inference
//! methods, and the parameters a short training run ends with are pinned
//! byte for byte. Any change to the tensor engine or the model code that
//! moves one float far enough to flip a token, a tag, a section flag or a
//! parameter bit fails here.
//!
//! On a mismatch the actual output is written next to the test binary's
//! scratch directory (the path is in the panic message); if the change is
//! meant to alter outputs, review that file and copy it over the golden.

use std::path::{Path, PathBuf};
use webpage_briefing::core::{
    encode_chunked, Briefer, JointModel, JointVariant, ModelConfig, TrainConfig, TrainableModel,
};
use webpage_briefing::corpus::{generate_page, Dataset, DatasetConfig, PageConfig};
use webpage_briefing::html::{parse_document, visible_text};
use webpage_briefing::text::{split_sentences, ChunkConfig};

const SEED: u64 = 7;

const VARIANTS: [JointVariant; 7] = [
    JointVariant::NaiveJoin,
    JointVariant::ConExtractor,
    JointVariant::AveExtractor,
    JointVariant::AttExtractor,
    JointVariant::AttBoth,
    JointVariant::PipBoth,
    JointVariant::JointWb,
];

/// Compares `actual` with the golden file `name` under `tests/golden/`.
fn assert_golden(name: &str, actual: &str) {
    let golden: PathBuf =
        [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name].iter().collect();
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&out, actual).expect("write actual output");
    let first_diff = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{} differs from the golden at line {}; actual output written to {}",
        golden.display(),
        first_diff + 1,
        out.display()
    );
}

/// Twenty generated pages (long enough to split into several chunks at
/// `sub_len` 32), three short hand-written ones that fit one chunk, and one
/// page without visible text.
fn pages(d: &Dataset) -> Vec<String> {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(SEED);
    let topics = d.taxonomy.topics();
    let mut pages: Vec<String> = (0..20)
        .map(|i| {
            generate_page(&topics[(i * 5) % topics.len()], PageConfig::default(), &mut rng)
        })
        .map(|p| p.dom.to_html())
        .collect();
    for (i, body) in [
        "<p>Great velcro books, price : $ 40.13 today.</p>",
        "<h1>Item 3</h1><p>Author : emma smith. Category : fiction goods.</p>",
        "<p>hello</p>",
    ]
    .iter()
    .enumerate()
    {
        pages.insert(4 * i + 1, format!("<html><body><section>{body}</section></body></html>"));
    }
    pages.push("<html><head><title>x</title></head></html>".to_string());
    pages
}

/// Briefs every page with a one-epoch model and with an untrained one: the
/// trained model mostly pins the section flags, the untrained one's random
/// weights also emit topics and attributes, which pins the beam search,
/// the tag head and the per-chunk assembly.
#[test]
fn briefs_match_the_golden_file() {
    let d = Dataset::generate(&DatasetConfig::tiny());
    let chunk = ChunkConfig { doc_len: 128, sub_len: 32 };
    let trained = Briefer::train(&d, TrainConfig::scaled(1), SEED).with_chunk_config(chunk);
    let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
    let untrained = JointModel::new(JointVariant::JointWb, cfg, SEED);
    let untrained =
        Briefer::from_model(untrained, d.tokenizer.clone()).with_chunk_config(chunk);
    let mut out = String::new();
    let (mut single, mut multi) = (0, 0);
    for (i, html) in pages(&d).iter().enumerate() {
        let sentences = split_sentences(&visible_text(&parse_document(html).unwrap()));
        let chunks = encode_chunked(&sentences, &d.tokenizer, chunk).len();
        match chunks {
            1 => single += 1,
            n if n > 1 => multi += 1,
            _ => {}
        }
        for (label, briefer) in [("trained", &trained), ("untrained", &untrained)] {
            let brief = match briefer.brief_html(html) {
                Ok(b) => serde_json::to_string(&b).unwrap(),
                Err(e) => format!("error: {e}"),
            };
            out.push_str(&format!("page {i:02} chunks {chunks} {label} {brief}\n"));
        }
    }
    assert!(single >= 3 && multi >= 10, "{single} one-chunk and {multi} multi-chunk pages");
    assert_golden("briefs.txt", &out);
}

#[test]
fn every_variant_matches_the_golden_inference_outputs() {
    let d = Dataset::generate(&DatasetConfig::tiny());
    let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
    let mut out = String::new();
    for v in VARIANTS {
        let m = JointModel::new(v, cfg, SEED);
        for idx in [0, 29, 58, 87] {
            let ex = &d.examples[idx];
            let topic = m.generate(ex);
            let tags: String =
                m.predict_tags(ex).iter().map(|t| char::from(b'0' + t)).collect();
            let sections: String = match m.predict_sections(ex) {
                Some(flags) => flags.iter().map(|&f| if f { '1' } else { '0' }).collect(),
                None => "-".into(),
            };
            out.push_str(&format!(
                "{} example {idx} topic {topic:?} tags {tags} sections {sections}\n",
                v.name()
            ));
        }
    }
    assert_golden("variants.txt", &out);
}

/// Ties every odd output token to the even token before it: the decoder's
/// output projection gets pairwise-equal columns, so each pair's logits
/// (and log-probabilities) are bit-equal at every step.
fn tie_output_pairs(m: &mut JointModel) {
    let id = m.params().find("dec.out.w").expect("joint decoder output weights");
    let w = m.params_mut().get_mut(id);
    let c = w.cols();
    for row in w.data_mut().chunks_mut(c) {
        for pair in row.chunks_exact_mut(2) {
            pair[1] = pair[0];
        }
    }
}

/// Beam search at widths 1, 4, 20 and 200, with the untrained model and the
/// one-epoch model, each as trained and with tied output pairs. The briefs
/// only run the default width 4, and a plain model's log-probabilities
/// almost never tie, so the tied models are what pin the tie order: a tie
/// goes to the lower token id, and equal-scored hypotheses keep the order
/// they were expanded in.
#[test]
fn beams_match_the_golden_file() {
    let d = Dataset::generate(&DatasetConfig::tiny());
    let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
    let untrained = JointModel::new(JointVariant::JointWb, cfg, SEED);
    let trained = Briefer::train(&d, TrainConfig::scaled(1), SEED);
    let mut out = String::new();
    for (label, params) in
        [("untrained", untrained.params()), ("trained", trained.model().params())]
    {
        for tied in [false, true] {
            for beam in [1, 4, 20, 200] {
                let mut m =
                    JointModel::new(JointVariant::JointWb, ModelConfig { beam, ..cfg }, SEED);
                m.params_mut().copy_from(params);
                if tied {
                    tie_output_pairs(&mut m);
                }
                for idx in [0, 29, 58, 87] {
                    let topic = m.generate(&d.examples[idx]);
                    out.push_str(&format!(
                        "{label} tied {tied} beam {beam} example {idx} topic {topic:?}\n"
                    ));
                }
            }
        }
    }
    assert_golden("beams.txt", &out);
}

/// FNV-1a over every parameter's name, shape and f32 bit pattern.
fn params_digest(m: &JointModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (_, name, t) in m.params().iter() {
        eat(name.as_bytes());
        for &s in t.shape() {
            eat(&(s as u64).to_le_bytes());
        }
        for &x in t.data() {
            eat(&x.to_bits().to_le_bytes());
        }
    }
    h
}

/// Training must stay bit-reproducible: `wb train --resume` relies on a
/// rerun landing on exactly the same parameters.
#[test]
fn two_epoch_training_lands_on_the_pinned_parameters() {
    let d = Dataset::generate(&DatasetConfig::tiny());
    let briefer = Briefer::train(&d, TrainConfig::scaled(2), SEED);
    assert_eq!(format!("{:016x}", params_digest(briefer.model())), "5de904750a5cf210");
}
