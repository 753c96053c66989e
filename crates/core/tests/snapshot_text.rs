//! The text of a detector snapshot, as files on disk meet it.
//!
//! `encore-serve` reloads whatever file another writer leaves, including
//! snapshots that older builds rendered and snapshots edited by hand.  So
//! the bytes a learn renders are pinned here, and a hand-edited file —
//! lines in any order, a repeated line, one attribute's lines split into
//! two runs, escaped control characters — must load as the canonical text
//! it stands for.

use encore::{fnv1a, DetectorSnapshot, EnCore, LearnOptions, TrainingSet};
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::{AppKind, AttrName};

/// The snapshot a 2-worker learn on `images` generated images of `app`
/// renders.
fn learned_text(app: AppKind, images: usize, seed: u64) -> String {
    let pop = Population::training(app, &PopulationOptions::new(images, seed));
    let training = TrainingSet::assemble(app, pop.images()).expect("training assembles");
    let options = LearnOptions {
        workers: Some(2),
        ..LearnOptions::default()
    };
    EnCore::try_learn(&training, &options)
        .expect("learns")
        .snapshot()
        .render()
}

#[test]
fn learned_snapshot_bytes_are_pinned() {
    // (app, images, seed) → (length, FNV-1a of the rendered bytes).  The
    // 300- and 127-row sets span five and two presence words, where the
    // smaller ones fit in one.
    let pins = [
        ((AppKind::Mysql, 30, 1), (22192, 3065399304991804258)),
        ((AppKind::Apache, 40, 1), (45231, 5568842274790082347)),
        ((AppKind::Php, 30, 1), (12814, 8523996777239305987)),
        ((AppKind::Mysql, 300, 3), (36562, 7474477095463674292)),
        ((AppKind::Apache, 127, 1), (58850, 15083504133108167047)),
    ];
    for ((app, images, seed), pinned) in pins {
        let text = learned_text(app, images, seed);
        let ctx = format!("{app:?} × {images}, seed {seed}");
        assert_eq!((text.len(), fnv1a(text.as_bytes())), pinned, "{ctx}");
        let parsed = DetectorSnapshot::parse(&text).expect("parses");
        assert_eq!(parsed.render(), text, "{ctx}: render(parse(text))");
    }
}

/// The inverse of the snapshot's value escaping.
fn unescape(field: &str) -> String {
    let mut out = String::new();
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('t') => '\t',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('\\') => '\\',
            other => panic!("bad escape {other:?} in {field:?}"),
        });
    }
    out
}

/// The lines of each section of `text`, in order, by section name; the
/// header line is filed under `""`.
fn sections(text: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = vec![(String::new(), Vec::new())];
    for line in text.lines() {
        match line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            Some(name) => out.push((name.to_string(), Vec::new())),
            None => out.last_mut().expect("a section").1.push(line.to_string()),
        }
    }
    out
}

fn join(sections: &[(String, Vec<String>)]) -> String {
    let mut out = String::new();
    for (name, lines) in sections {
        if !name.is_empty() {
            out.push_str(&format!("[{name}]\n"));
        }
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// A fixed permutation of `lines` (a seeded Fisher–Yates shuffle).
fn shuffled(mut lines: Vec<String>, mut seed: u64) -> Vec<String> {
    for i in (1..lines.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lines.swap(i, (seed >> 33) as usize % (i + 1));
    }
    lines
}

fn lines_of<'a>(sections: &'a mut [(String, Vec<String>)], name: &str) -> &'a mut Vec<String> {
    &mut sections
        .iter_mut()
        .find(|(n, _)| n == name)
        .expect("section present")
        .1
}

#[test]
fn hand_edited_snapshot_parses_as_its_canonical_text() {
    let learned = learned_text(AppKind::Mysql, 30, 1);
    let mut canonical = sections(&learned);

    // Values holding every escaped character, on an attribute that already
    // has a histogram, placed as the renderer orders them: attributes in
    // `AttrName` order, then values by their unescaped text.
    let values = lines_of(&mut canonical, "values");
    let tag = values[0].split('\t').next().expect("a tag").to_string();
    for escaped in [
        "with\\ttab",
        "two\\nlines",
        "carriage\\rreturn",
        "back\\\\slash",
    ] {
        values.push(format!("{tag}\t3\t{escaped}"));
    }
    let key = |line: &String| {
        let mut fields = line.splitn(3, '\t');
        let attr = AttrName::parse_tagged(fields.next().unwrap()).expect("tag parses");
        (attr, unescape(fields.nth(1).unwrap()))
    };
    values.sort_by_key(key);
    let canonical_text = join(&canonical);
    let parsed = DetectorSnapshot::parse(&canonical_text).expect("canonical text parses");
    assert_eq!(
        parsed.render(),
        canonical_text,
        "the reference order is the renderer's"
    );

    let mut edited = canonical.clone();
    // [values]: every line in a shuffled order, then one attribute with
    // several values split into two runs around the others, and one line
    // repeated, first with another count: the later count wins.
    let values = shuffled(lines_of(&mut edited, "values").clone(), 7);
    let split_tag = {
        let tags: Vec<&str> = values
            .iter()
            .map(|l| l.split('\t').next().unwrap())
            .collect();
        tags.iter()
            .find(|t| tags.iter().filter(|u| u == t).count() >= 3)
            .expect("an attribute with three values")
            .to_string()
    };
    let (split, rest): (Vec<String>, Vec<String>) = values
        .into_iter()
        .partition(|l| l.starts_with(&format!("{split_tag}\t")));
    let repeated = rest[rest.len() / 2].clone();
    let mut fields = repeated.splitn(3, '\t');
    let (tag, _, value) = (
        fields.next().unwrap(),
        fields.next(),
        fields.next().unwrap(),
    );
    let mut values = vec![split[0].clone(), format!("{tag}\t999999\t{value}")];
    values.extend(rest);
    values.extend(split[1..].iter().cloned());
    values.push(repeated);
    *lines_of(&mut edited, "values") = values;
    // [types]: shuffled, with one attribute first given another type.
    let types = shuffled(lines_of(&mut edited, "types").clone(), 11);
    let first = types[0].split('\t').next().unwrap().to_string();
    let mut repeated_types = vec![format!("{first}\tEnum"), format!("{first}\tNumber")];
    repeated_types.extend(types);
    *lines_of(&mut edited, "types") = repeated_types;
    // [entries]: shuffled, every name twice.
    let entries = lines_of(&mut edited, "entries");
    let mut doubled = entries.clone();
    doubled.extend(entries.iter().rev().cloned());
    *entries = shuffled(doubled, 13);
    let edited_text = join(&edited);
    assert_ne!(edited_text, canonical_text);

    let loaded = DetectorSnapshot::parse(&edited_text).expect("edited text parses");
    assert_eq!(loaded, parsed);
    assert_eq!(loaded.render(), canonical_text);
}
