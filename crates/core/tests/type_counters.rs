//! The assemble phase's `assemble.types.*` counters count assembly's type
//! verdicts, one per typed entry, so they sum to `assemble.entries.typed`.
//! Detection re-types a target's numeric, size and boolean cells from
//! their render, and so does Table 8's `BaselineEnv`; that is detection's
//! work and counts nothing there.  One test, since it reads the
//! process-global counters.

use encore::baseline::BaselineEnv;
use encore::{obs, EnCore, FleetOptions, LearnOptions, TrainingSet};
use encore_assemble::obs::{
    ENTRIES_TYPED, TYPES_CUSTOM, TYPES_SEMANTIC, TYPES_SYNTACTIC, TYPES_TRIVIAL,
};
use encore_assemble::Assembler;
use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;

#[test]
fn type_counters_sum_to_typed_entries_after_detection() {
    let app = AppKind::Mysql;
    let pop = Population::training(app, &PopulationOptions::new(30, 7));
    let targets = Population::training(
        app,
        &PopulationOptions::new(20, 83).with_misconfig_percent(21),
    );
    let typed = || ENTRIES_TYPED.get();
    let verdicts = || {
        [
            &TYPES_CUSTOM,
            &TYPES_SEMANTIC,
            &TYPES_SYNTACTIC,
            &TYPES_TRIVIAL,
        ]
        .iter()
        .map(|counter| counter.get())
        .sum::<u64>()
    };

    obs::reset();
    obs::enable();
    let training = TrainingSet::assemble(app, pop.images()).expect("training assembles");
    let options = LearnOptions {
        workers: Some(2),
        ..LearnOptions::default()
    };
    let detector = EnCore::try_learn(&training, &options)
        .expect("learns")
        .into_detector();
    let trained = (typed(), verdicts());
    let reports = detector.check_fleet(app, targets.images(), &FleetOptions::with_workers(2));
    let checked = (typed(), verdicts());
    let baseline = BaselineEnv::train(app, pop.images()).expect("trains");
    for image in targets.images() {
        baseline.check_image(app, image).expect("checks");
    }
    let compared = (typed(), verdicts());
    obs::disable();

    assert!(reports.iter().all(Result::is_ok));
    // The fleet holds cells detection re-types: an original entry whose
    // value is not text, with a nontrivial trained type.
    let assembler = Assembler::new();
    let retyped: usize = targets
        .images()
        .iter()
        .map(|image| {
            let row = assembler.assemble_image(app, image).expect("assembles");
            row.iter()
                .filter(|(attr, value)| {
                    attr.is_original()
                        && !value.is_absent()
                        && value.as_str().is_none()
                        && !detector.types().type_of(attr).is_trivial()
                })
                .count()
        })
        .sum();
    assert!(retyped > 0, "no numeric, size or boolean cell to re-type");
    assert!(trained.0 > 0 && checked.0 > trained.0 && compared.0 > checked.0);
    for (phase, (typed, verdicts)) in [
        ("learn", trained),
        ("check_fleet", checked),
        ("BaselineEnv", compared),
    ] {
        assert_eq!(verdicts, typed, "after {phase}");
    }
}
