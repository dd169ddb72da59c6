"""The README states the configuration schema and the CSV columns the code has."""

import re
from pathlib import Path

from epsent import config, sweep

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def first_code_span(text: str) -> str:
    return re.search(r"`([^`]*)`", text).group(1)


def test_configuration_table_lists_every_key_and_flag_in_order():
    lines = README.splitlines()
    header = next(i for i, line in enumerate(lines) if re.match(r"\|\s*key\s*\|\s*flag\s*\|", line))
    rows = []
    for line in lines[header + 2 :]:
        if not line.startswith("|"):
            break
        key, flag = line.split("|")[1:3]
        rows.append((first_code_span(key), first_code_span(flag)))
    assert rows == [(key, config.flag_of(key)) for key in config.SCHEMA]


def test_csv_columns_list_matches_the_writer():
    section = README.split("### CSV columns", 1)[1]
    columns = tuple(re.split(r",\s*", first_code_span(section)))
    assert columns == sweep.CSV_COLUMNS
