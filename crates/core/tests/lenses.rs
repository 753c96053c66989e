//! The lenses' `parse_into`, which writes every pair into one reused
//! buffer, against the line-by-line `parse` bodies it replaced, kept here
//! as references: on every generated corpus, and on hand cases for the
//! quoting, section and flag rules and for every `ParseError`.

use encore_corpus::genimage::{Population, PopulationOptions};
use encore_model::AppKind;
use encore_parser::{
    apache::MAX_SECTION_DEPTH, ApacheLens, IniLens, KeyValue, Lens, LensRegistry, Pairs,
    ParseError, SshdLens,
};
use std::collections::HashMap;

/// The Apache lens's `parse` before it wrote into a pair buffer.
fn reference_apache(text: &str) -> Result<Vec<KeyValue>, ParseError> {
    fn split_args(line: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut quoted = false;
        for c in line.chars() {
            match c {
                '"' => quoted = !quoted,
                c if c.is_whitespace() && !quoted => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                }
                c => cur.push(c),
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }
    fn is_repeatable(directive: &str) -> bool {
        matches!(
            directive,
            "LoadModule" | "AddType" | "AddHandler" | "Alias" | "Listen" | "Include"
        )
    }

    let mut pairs = Vec::new();
    let mut section_stack: Vec<String> = Vec::new();
    let mut occurrence: HashMap<String, usize> = HashMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("</") {
            let name = rest.trim_end_matches('>').trim();
            match section_stack.pop() {
                Some(open) if open.split(':').next() == Some(name) => continue,
                _ => {
                    return Err(ParseError::MismatchedClose {
                        line: idx + 1,
                        found: name.to_string(),
                    })
                }
            }
        }
        if let Some(rest) = line.strip_prefix('<') {
            if section_stack.len() == MAX_SECTION_DEPTH {
                return Err(ParseError::SectionTooDeep { line: idx + 1 });
            }
            let inner = rest.trim_end_matches('>').trim();
            let mut words = split_args(inner);
            if words.is_empty() {
                return Err(ParseError::BadLine {
                    line: idx + 1,
                    text: raw.to_string(),
                });
            }
            let name = words.remove(0);
            let arg = words.join(" ");
            if !arg.is_empty() {
                let prefix = if section_stack.is_empty() {
                    String::new()
                } else {
                    format!("{}|", section_stack.join("|"))
                };
                let n = occurrence.entry(format!("<{name}>")).or_insert(0);
                pairs.push(KeyValue::new(
                    format!("{prefix}{name}#{n}/section"),
                    arg.clone(),
                ));
                *n += 1;
            }
            section_stack.push(if arg.is_empty() {
                name
            } else {
                format!("{name}:{arg}")
            });
            continue;
        }
        let words = split_args(line);
        if words.is_empty() {
            continue;
        }
        let directive = &words[0];
        let prefix = if section_stack.is_empty() {
            String::new()
        } else {
            format!("{}|", section_stack.join("|"))
        };
        let base = if is_repeatable(directive) {
            let n = occurrence.entry(directive.clone()).or_insert(0);
            let key = format!("{prefix}{directive}#{n}");
            *n += 1;
            key
        } else {
            format!("{prefix}{directive}")
        };
        match words.len() {
            1 => pairs.push(KeyValue::new(base, "")),
            2 => pairs.push(KeyValue::new(base, words[1].clone())),
            _ => {
                for (i, arg) in words[1..].iter().enumerate() {
                    pairs.push(KeyValue::new(format!("{base}/arg{}", i + 1), arg.clone()));
                }
            }
        }
    }
    if let Some(open) = section_stack.pop() {
        return Err(ParseError::UnclosedSection {
            name: open.split(':').next().unwrap_or(&open).to_string(),
        });
    }
    Ok(pairs)
}

/// The INI lens's `parse` before it wrote into a pair buffer, with quotes
/// protecting comment markers: `section` is the section it keeps (`None`
/// keeps all), and `flags` whether bare flag lines are legal.
fn reference_ini(
    text: &str,
    section: Option<&str>,
    flags: bool,
) -> Result<Vec<KeyValue>, ParseError> {
    fn value_of(text: &str) -> &str {
        let value = text.trim();
        if let Some(quote) = value.chars().next().filter(|&c| c == '"' || c == '\'') {
            if let Some((inner, rest)) = value[1..].split_once(quote) {
                let rest = rest.trim_start();
                if rest.is_empty() || rest.starts_with(['#', ';']) {
                    return inner;
                }
            }
        }
        let cut = value
            .as_bytes()
            .windows(2)
            .position(|w| matches!(w[0], b' ' | b'\t') && matches!(w[1], b'#' | b';'));
        match cut {
            Some(i) => value[..i].trim(),
            None => value,
        }
        .trim_matches('"')
    }

    let mut pairs = Vec::new();
    let mut current_section: Option<String> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            match rest.strip_suffix(']') {
                Some(name) => {
                    current_section = Some(name.trim().to_string());
                    continue;
                }
                None => {
                    return Err(ParseError::BadLine {
                        line: idx + 1,
                        text: raw.to_string(),
                    })
                }
            }
        }
        if let Some(filter) = section {
            if current_section.as_deref() != Some(filter) {
                continue;
            }
        }
        if let Some((k, v)) = line.split_once('=') {
            let key = k.trim();
            if key.is_empty() {
                return Err(ParseError::BadLine {
                    line: idx + 1,
                    text: raw.to_string(),
                });
            }
            pairs.push(KeyValue::new(key, value_of(v)));
        } else if flags
            && line
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
        {
            pairs.push(KeyValue::new(line, ""));
        } else {
            return Err(ParseError::BadLine {
                line: idx + 1,
                text: raw.to_string(),
            });
        }
    }
    Ok(pairs)
}

/// The sshd lens's `parse` before it wrote into a pair buffer.
fn reference_sshd(text: &str) -> Result<Vec<KeyValue>, ParseError> {
    let mut pairs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once(char::is_whitespace) {
            Some((k, v)) => pairs.push(KeyValue::new(k.trim(), v.trim())),
            None => {
                return Err(ParseError::BadLine {
                    line: idx + 1,
                    text: raw.to_string(),
                })
            }
        }
    }
    Ok(pairs)
}

/// A reference parse.
type Reference = fn(&str) -> Result<Vec<KeyValue>, ParseError>;

/// The lens of `app` and its reference.
fn lens_and_reference(app: AppKind) -> (Box<dyn Lens>, Reference) {
    match app {
        AppKind::Apache => (Box::new(ApacheLens::new()), reference_apache),
        AppKind::Mysql => (Box::new(IniLens::mysql()), |text| {
            reference_ini(text, Some("mysqld"), true)
        }),
        AppKind::Php => (Box::new(IniLens::php()), |text| {
            reference_ini(text, None, false)
        }),
        AppKind::Sshd => (Box::new(SshdLens::new()), reference_sshd),
    }
}

/// `parse_into` of `text` appends what the reference parses, or fails as
/// it does, on a buffer that already holds a pair.
fn assert_matches_reference(app: AppKind, text: &str) {
    let (lens, reference) = lens_and_reference(app);
    let mut pairs = Pairs::new();
    pairs.push("earlier", "pair");
    let got = lens.parse_into(text, &mut pairs).map(|()| {
        assert_eq!(pairs.get(0), ("earlier", "pair"), "{app}: {text:?}");
        pairs.to_vec()[1..].to_vec()
    });
    assert_eq!(got, reference(text), "{app}: {text:?}");
    assert_eq!(lens.parse(text), reference(text), "{app}: {text:?}");
}

#[test]
fn parse_into_matches_the_references_on_every_corpus() {
    let mut populations = Vec::new();
    for seed in 1..=4 {
        populations.push(Population::training(
            AppKind::Apache,
            &PopulationOptions::new(127, seed),
        ));
    }
    for app in AppKind::STUDIED {
        populations.push(Population::ec2_fresh(app, 200, 5));
        populations.push(Population::private_cloud(app, 300, 6));
    }
    populations.push(Population::training(
        AppKind::Mysql,
        &PopulationOptions::new(300, 3),
    ));
    populations.push(Population::training(
        AppKind::Php,
        &PopulationOptions::new(60, 3),
    ));
    populations.push(Population::training(
        AppKind::Sshd,
        &PopulationOptions::new(60, 3),
    ));
    let mut configurations = 0;
    for pop in &populations {
        for image in pop.images() {
            let text = image.read_file(pop.app().config_path()).expect("config");
            assert_matches_reference(pop.app(), text);
            configurations += 1;
        }
    }
    assert!(
        configurations > 2000,
        "only {configurations} configurations"
    );
}

#[test]
fn parse_into_matches_the_references_on_hand_cases() {
    let apache = [
        // Quoting: a quoted word with inner spaces, a quote inside a word,
        // an empty `""`, a line of nothing but one, an unterminated quote.
        "ServerAdmin \"web master\"\n",
        "Header c\"d e\"f g\n",
        "Options \"\"\n\"\"\nTimeout 60\n",
        "ServerName \"abc def\nUser apache\n",
        // Sections: a name holding `:`, closed by its name and by the text
        // before the `:`; no argument; several arguments; nesting; a close
        // tag with spaces; repeated sections and directives.
        "<A:B x>\nk v\n</A:B>\n",
        "<A:B x>\nk v\n</A>\n",
        "<A:B>\nk v\n</A>\n",
        "<IfModule>\nk v\n</IfModule>\n",
        "<VirtualHost *:80 *:443>\nServerName a\n</VirtualHost >\n",
        "<Directory /a>\n<Files \"x y\">\nLoadModule m a.so\n</Files>\n</Directory>\nLoadModule n b.so\n",
        "<Directory /a>\n</Directory>\n<Directory /a>\nOptions Indexes FollowSymLinks\n</Directory>\n",
        "Listen 80\nListen 443\n# comment\n   \nAlias /x /y\nAlias /z /w\n",
        // Every error, with its line number.
        "<>\n",
        "Timeout 1\n< >\n",
        "<Directory /x>\nOptions None\n",
        "<a>\n<b c>\n",
        "<Directory /x>\n</Files>\n",
        "</Directory>\n",
        &"<a b>\n".repeat(MAX_SECTION_DEPTH + 1),
    ];
    for text in apache {
        assert_matches_reference(AppKind::Apache, text);
    }
    let ini = [
        // Bare flags, comments, sections the MySQL lens skips.
        "[client]\nport = 1\n[mysqld]\nskip-external-locking\nlog.bin\n; c\n# c\nuser = mysql\n",
        // Quotes protect comment markers; a tab ends a bare value.
        "[mysqld]\npassword = \"ab #cd\"\ninit-connect = 'SET NAMES utf8 ;x'  # set\n",
        "[mysqld]\nsocket = /tmp/my.sock\t# c\nbare = a\t;b\nopen = \"ab #cd\nodd = \"a\"b\"\nempty = \"\"\n",
        "[PHP]\nextension_dir = \"/usr/lib/php\" ; where modules live\ndate.timezone = UTC\n",
        // Every error, with its line number.
        "[mysqld\nport = 1\n",
        "[mysqld]\nport = 1\n= 2\n",
        "[mysqld]\nskip external locking\n",
        "[PHP]\nbare_flag\n",
    ];
    for text in ini {
        assert_matches_reference(AppKind::Mysql, text);
        assert_matches_reference(AppKind::Php, text);
    }
    for text in [
        "# sshd\nPort 22\nPermitRootLogin  no\n\tAllowUsers a b\n",
        "Port 22\nUseDNS\n",
    ] {
        assert_matches_reference(AppKind::Sshd, text);
    }
}

#[test]
fn every_parse_error_carries_its_line() {
    let apache = ApacheLens::new();
    let deep = "<a b>\n".repeat(MAX_SECTION_DEPTH + 1);
    for (text, error) in [
        (
            "Timeout 1\n< >\n",
            ParseError::BadLine {
                line: 2,
                text: "< >".into(),
            },
        ),
        (
            "<a>\n<b c>\n",
            ParseError::UnclosedSection { name: "b".into() },
        ),
        (
            "<A:B x>\nk v\n</A:B>\n",
            ParseError::MismatchedClose {
                line: 3,
                found: "A:B".into(),
            },
        ),
        (
            deep.as_str(),
            ParseError::SectionTooDeep {
                line: MAX_SECTION_DEPTH + 1,
            },
        ),
    ] {
        assert_eq!(apache.parse(text), Err(error), "{text:?}");
    }
    assert_eq!(
        IniLens::php().parse("[PHP]\na = 1\nbare_flag\n"),
        Err(ParseError::BadLine {
            line: 3,
            text: "bare_flag".into()
        })
    );
    assert_eq!(
        SshdLens::new().parse("Port 22\n UseDNS\n"),
        Err(ParseError::BadLine {
            line: 2,
            text: " UseDNS".into()
        })
    );
    let mut pairs = Pairs::new();
    assert_eq!(
        LensRegistry::with_defaults().parse_into("nginx", "", &mut pairs),
        Err(ParseError::NoLens("nginx".into()))
    );
}
