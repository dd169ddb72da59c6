from epsent import seeds


def stream_tags():
    return {name: value for name, value in vars(seeds).items() if name.endswith("_STREAM")}


def test_stream_tags_are_distinct():
    tags = stream_tags()
    assert "ORBIT_STREAM" in tags
    assert len(set(tags.values())) == len(tags), tags


def test_orbit_seed_mixes_the_orbit_stream():
    for master in (0, 1, 0x5EEDC0DE, (1 << 64) - 1):
        for si in range(6):
            assert seeds.orbit_seed(master, si) == seeds.mix(master, seeds.ORBIT_STREAM, si)


def test_orbit_seeds_differ_from_cell_seeds():
    master = 0x5EEDC0DE
    orbit = {seeds.orbit_seed(master, si) for si in range(5)}
    cells = {seeds.cell_seed(master, si, ei) for si in range(5) for ei in range(12)}
    assert len(orbit) == 5
    assert not orbit & cells


def test_probe_seeds_differ_from_every_sweep_seed():
    master = 0x5EEDC0DE
    orbit = {seeds.orbit_seed(master, si) for si in range(5)}
    probe = {seeds.probe_seed(master, si) for si in range(5)}
    cells = {seeds.cell_seed(master, si, ei) for si in range(5) for ei in range(12)}
    assert len(probe) == 5
    assert not probe & (orbit | cells | {seeds.companion_seed(master)})
