//! Assembly over generated populations of every studied application: the
//! per-image types line up with the row's original entries (the training
//! merge relies on it), type inference picks the same type as the
//! list-first reference loop it replaced, and typing through a training
//! worker's memo picks the same type as typing without one.

use encore_assemble::{syntactic, Assembler, CustomType, EncodedCells, Pairs, TypeInference};
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::{AppKind, AttrName, SemType};
use encore_parser::LensRegistry;
use encore_sysimage::SystemImage;
use std::collections::BTreeMap;

fn populations() -> impl Iterator<Item = Population> {
    AppKind::STUDIED
        .into_iter()
        .map(|app| Population::training(app, &PopulationOptions::new(40, 9)))
}

#[test]
fn types_keys_are_the_rows_original_entries() {
    for assembler in [Assembler::new(), Assembler::new().without_augmentation()] {
        for pop in populations() {
            for image in pop.images() {
                let sys = assembler
                    .assemble_system(pop.app(), image)
                    .expect("generated images assemble");
                let originals: Vec<&AttrName> = sys
                    .row
                    .iter()
                    .map(|(attr, _)| attr)
                    .filter(|attr| attr.is_original())
                    .collect();
                let keys: Vec<&AttrName> = sys.types.iter().map(|(attr, _)| attr).collect();
                assert_eq!(originals, keys, "{} {}", pop.app(), image.id());
            }
        }
    }
}

/// The inference loop before it fused matching and verification: build
/// every syntactic candidate, then verify them in order.
fn reference_infer(
    inference: &TypeInference,
    custom: Option<fn(&str) -> bool>,
    value: &str,
    image: &SystemImage,
) -> SemType {
    let v = value.trim();
    if let Some(matcher) = custom {
        if matcher(v) {
            return SemType::PortNumber;
        }
    }
    syntactic::candidates(v)
        .into_iter()
        .find(|&ty| inference.verify(ty, v, image))
        .unwrap_or(SemType::Str)
}

#[test]
fn inference_equals_the_candidates_first_reference() {
    // A custom type that claims values the predefined types would also
    // match, so it changes winners.
    fn four_digits(v: &str) -> bool {
        v.len() == 4 && v.bytes().all(|b| b.is_ascii_digit())
    }
    let mut custom = TypeInference::new();
    custom.register(CustomType::new(
        "FourDigits",
        SemType::PortNumber,
        four_digits,
    ));
    let engines = [
        (TypeInference::new(), None),
        (custom, Some(four_digits as fn(&str) -> bool)),
    ];
    let lenses = LensRegistry::with_defaults();
    let mut values = 0;
    for pop in populations() {
        for image in pop.images() {
            let text = image.read_file(pop.app().config_path()).expect("config");
            for kv in lenses.parse(pop.app().name(), text).expect("parses") {
                values += 1;
                for (inference, matcher) in &engines {
                    assert_eq!(
                        inference.infer(&kv.value, image),
                        reference_infer(inference, *matcher, &kv.value, image),
                        "{} {} = {:?}",
                        pop.app(),
                        kv.key,
                        kv.value
                    );
                }
            }
        }
    }
    assert!(values > 1000, "only {values} values checked");
}

/// One memo shared across a whole training set, as each assembly worker
/// shares its own, types every entry as a target's assembly does on the
/// entry's own image: each attribute's votes, image by image, are the
/// types `assemble_system` gives it.  On the benchmark's and CI's training
/// sets, and with a registered custom type, which types through `infer`.
#[test]
fn the_memo_types_every_entry_as_target_assembly_does() {
    let custom =
        Assembler::new().with_custom_type(CustomType::new("Directory", SemType::FilePath, |v| {
            v.ends_with('/')
        }));
    for (app, n, seed) in [
        (AppKind::Apache, 127, 1),
        (AppKind::Mysql, 300, 3),
        (AppKind::Php, 60, 3),
    ] {
        let pop = Population::training(app, &PopulationOptions::new(n, seed));
        for assembler in [&Assembler::new(), &custom] {
            let mut cells = EncodedCells::new();
            let mut pairs = Pairs::new();
            let mut expected: BTreeMap<AttrName, Vec<SemType>> = BTreeMap::new();
            for image in pop.images() {
                assembler
                    .assemble_into(app, image, &mut pairs, &mut cells)
                    .expect("generated images assemble");
                cells.finish(image.id());
                let system = assembler.assemble_system(app, image).expect("assembles");
                for (attr, ty) in system.types {
                    expected.entry(attr).or_default().push(ty);
                }
            }
            let voted: BTreeMap<AttrName, Vec<SemType>> = cells
                .encoder()
                .attrs()
                .iter()
                .zip(cells.votes())
                .filter(|(_, votes)| !votes.is_empty())
                .map(|(attr, votes)| (attr.clone(), votes.clone()))
                .collect();
            let values: usize = expected.values().map(Vec::len).sum();
            assert!(values > 1000, "{app}: only {values} entries checked");
            assert_eq!(voted, expected, "{app}");
        }
    }
}
