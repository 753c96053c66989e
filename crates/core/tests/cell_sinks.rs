//! A training image and a target image assemble through different cell
//! sinks: a training worker encodes the cells as they come, and a target
//! sorts them into a row.  An entry that repeats with a change of type must
//! give both the same cells, types and `assemble.augment.attrs` count.
//! One test, since it reads the process-global counters.

use encore::obs;
use encore::TrainingSet;
use encore_assemble::Assembler;
use encore_model::{AppKind, AttrName, ConfigValue, SemType};
use encore_sysimage::SystemImage;

#[test]
fn a_repeated_entry_assembles_alike_for_training_and_targets() {
    // `datadir` first names an existing directory (a FilePath, augmented
    // with eight cells), then a path that does not exist (a Str).
    let image = SystemImage::builder("img-0")
        .user("mysql", 27, &["mysql"])
        .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
        .file(
            "/etc/mysql/my.cnf",
            "root",
            "root",
            0o644,
            "[mysqld]\nuser = mysql\ndatadir = /var/lib/mysql\ndatadir = /no/such/dir\n",
        )
        .build();
    let augmented = || encore_assemble::obs::AUGMENTED_ATTRS.get();
    obs::reset();
    obs::enable();
    let system = Assembler::new()
        .assemble_system(AppKind::Mysql, &image)
        .expect("assembles");
    let target_attrs = augmented();
    let training =
        TrainingSet::assemble(AppKind::Mysql, std::slice::from_ref(&image)).expect("assembles");
    let training_attrs = augmented() - target_attrs;
    obs::disable();

    // Eight cells of the first `datadir`, three of `user`, seven
    // system-wide ones.
    assert_eq!((target_attrs, training_attrs), (18, 18));
    let datadir = AttrName::entry("datadir");
    assert_eq!(
        system.row.get(&datadir),
        Some(&ConfigValue::str("/no/such/dir"))
    );
    assert_eq!(
        system.row.get(&datadir.augmented("type")),
        Some(&ConfigValue::str("dir"))
    );
    assert_eq!(
        system.types,
        [
            (datadir.clone(), SemType::Str),
            (AttrName::entry("user"), SemType::UserName),
        ]
    );

    // The training table holds the target row's cells, and the vote is
    // the type of the entry's last value.
    let cache = training.stats_cache();
    let store = cache.columns();
    assert_eq!(
        cache.attributes(),
        system
            .row
            .iter()
            .map(|(attr, _)| attr.clone())
            .collect::<Vec<_>>()
    );
    for (attr, value) in system.row.iter() {
        let column = store.column_of(attr).expect("column");
        let cell = column.value_id(0).map(|id| store.value(id));
        assert_eq!(cell, Some(value).filter(|v| !v.is_absent()), "{attr}");
    }
    assert_eq!(training.types().type_of(&datadir), SemType::Str);
    assert_eq!(
        training.types().type_of(&AttrName::entry("user")),
        SemType::UserName
    );
}
