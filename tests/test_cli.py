import json
from pathlib import Path

import numpy as np
import pytest

from snaketrack import netpbm, synth
from snaketrack.cli import RunConfig, main, parse_config
from snaketrack.errors import ConfigError, TrackingLostError
from snaketrack.snake import SnakeParams
from snaketrack.surf import DetectorParams


# --- synthetic scenes ---

def test_disk_coverage_values():
    img = synth.disk_image(64, 64)
    assert img.shape == (64, 64)
    assert img[32, 32] == 1.0  # interior
    assert img[0, 0] == 0.0    # far exterior
    assert np.all((img >= 0.0) & (img <= 1.0))
    # boundary band is the only place with fractional coverage
    frac = (img > 0.0) & (img < 1.0)
    assert frac.any()


def test_square_coverage_is_separable():
    img = synth.square_image(64, 64)
    inside = img == 1.0
    assert inside.any()
    rows = np.unique(np.nonzero(inside)[0])
    cols = np.unique(np.nonzero(inside)[1])
    # interior is a full axis-aligned block
    assert inside[np.ix_(rows, cols)].all()


def test_sequence_static_disk_frames_identical():
    frames = synth.sequence("disk", 48, 48, 3)
    assert len(frames) == 3
    assert np.array_equal(frames[0], frames[1])
    assert np.array_equal(frames[1], frames[2])


def test_sequence_translate_square_shifts_two_px():
    frames = synth.sequence("translate_square", 96, 96, 3, speed=2.0)
    # speed 2: every frame is the previous one moved 2 columns right
    assert np.allclose(frames[1][:, 2:], frames[0][:, :-2], atol=1e-12)
    assert np.allclose(frames[2][:, 2:], frames[1][:, :-2], atol=1e-12)


def test_sequence_validation():
    with pytest.raises(ValueError):
        synth.sequence("blob", 64, 64, 1)
    with pytest.raises(ValueError):
        synth.sequence("disk", 16, 64, 1)
    with pytest.raises(ValueError):
        synth.sequence("disk", 64, 64, 0)


# --- config parsing ---

def full_config(tmp_path, **overrides):
    values = {
        "input_dir": str(tmp_path / "frames"),
        "output_dir": str(tmp_path / "out"),
    }
    values.update(overrides)
    lines = ["# run settings", ""]
    lines += [f"{k} = {v}" for k, v in values.items()]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parse_config_round_trip(tmp_path):
    path = full_config(
        tmp_path, alpha=0.1, beta=0.02, lam=2.0, sigma=1.5, max_iters=50,
        stall_window=3, max_spacing=10.0, min_contour_size=5,
        hessian_threshold=0.001, octaves=2, init_step=2, ratio=0.8,
        frame_glob="img_*.pgm", emit_overlays="yes", dump_keypoints="off")
    cfg = parse_config(path.read_text())
    assert cfg.snake == SnakeParams(alpha=0.1, beta=0.02, lam=2.0, sigma=1.5,
                                    max_iters=50, stall_window=3,
                                    max_spacing=10.0, min_contour_size=5)
    assert cfg.detector == DetectorParams(hessian_threshold=0.001, octaves=2,
                                          init_step=2, ratio=0.8)
    assert cfg.frame_glob == "img_*.pgm"
    assert cfg.emit_overlays is True
    assert cfg.dump_keypoints is False


def test_readme_config_block_is_every_key_at_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert cfg == RunConfig(input_dir="frames", output_dir="out")
    keys = [line.partition("=")[0].strip() for line in block.splitlines()]
    assert sorted(keys) == sorted(key for key, _ in cfg.items())


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("input_dir = a\noutput_dir = b\nwibble = 3\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(path.read_text())
    assert "line 3" in str(exc.value)
    assert "wibble" in str(exc.value)


def test_parse_config_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("input_dir = a\noutput_dir = b\nalpha = much\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(path.read_text())
    assert "alpha" in str(exc.value)
    # a value of the right type that its parameter class rejects
    with pytest.raises(ConfigError, match="bad parameter: ratio"):
        parse_config("input_dir = a\noutput_dir = b\nratio = 2\n")


def test_parse_config_missing_separator(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("input_dir a\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(path.read_text())
    assert "line 1" in str(exc.value)


def test_parse_config_requires_dirs(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("alpha = 0.1\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(path.read_text())
    assert "input_dir" in str(exc.value)


# --- synth subcommand ---

def test_synth_command_writes_frames(tmp_path):
    out = tmp_path / "frames"
    rc = main(["synth", "--kind", "disk", "--size", "48x48",
               "--frames", "2", "--out", str(out)])
    assert rc == 0
    files = sorted(out.glob("frame_*.pgm"))
    assert [f.name for f in files] == ["frame_00000.pgm", "frame_00001.pgm"]
    arr = netpbm.read(files[0])
    assert arr.shape == (48, 48)


def test_synth_command_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--kind", "translate_square", "--size", "64x64",
                     "--frames", "3", "--speed", "1.5", "--out", str(out)]) == 0
    for name in ("frame_00000.pgm", "frame_00001.pgm", "frame_00002.pgm"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_command_rejects_bad_size(tmp_path, capsys):
    assert main(["synth", "--kind", "disk", "--size", "weird",
                 "--out", str(tmp_path / "x")]) == 1
    assert "WxH" in capsys.readouterr().err
    assert main(["synth", "--kind", "disk", "--size", "8x8",
                 "--out", str(tmp_path / "y")]) == 1


# --- run subcommand ---

def make_frames(tmp_path, kind="disk", size=128, frames=1, speed=0.0):
    frames_dir = tmp_path / "frames"
    assert main(["synth", "--kind", kind, "--size", f"{size}x{size}",
                 "--frames", str(frames), "--speed", str(speed),
                 "--out", str(frames_dir)]) == 0
    return frames_dir


def test_run_single_frame(tmp_path):
    make_frames(tmp_path)
    cfg = full_config(tmp_path)
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    out = tmp_path / "out"
    records = [json.loads(line) for line in
               (out / "contours.jsonl").read_text().splitlines()]
    kinds = [r["type"] for r in records]
    assert kinds.count("contour") >= 1
    assert kinds.count("events") == 1
    assert kinds.count("energy") == 1
    assert all(r["frame"] == 0 for r in records)
    contour = next(r for r in records if r["type"] == "contour")
    assert len(contour["points"]) == len(contour["agent_ids"])

    lines = (out / "metrics.csv").read_text().splitlines()
    header_lines = [l for l in lines if l.startswith("#")]
    assert header_lines == [
        f"# input_dir={tmp_path / 'frames'}", "# frame_glob=frame_*.pgm",
        f"# output_dir={tmp_path / 'out'}", "# alpha=0.05", "# beta=0.01",
        "# lam=1.0", "# sigma=1.0", "# max_iters=500", "# stall_window=5",
        "# max_spacing=12.0", "# min_contour_size=4",
        "# hessian_threshold=0.0002", "# octaves=3", "# init_step=1",
        "# ratio=0.7", "# emit_overlays=False", "# dump_keypoints=False"]
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == ("frame,iterations,final_energy,contours,"
                       "splits,discards,offset_x,offset_y,"
                       "converged,low_confidence")
    assert len(data) == 2  # column header + one frame
    assert data[1].startswith("0,")
    assert data[1].endswith(",True,False")


def test_run_overlays_and_keypoints(tmp_path):
    make_frames(tmp_path)
    cfg = full_config(tmp_path, emit_overlays="true", dump_keypoints="true")
    rc = main(["run", "--config", str(cfg)])
    assert rc == 0
    out = tmp_path / "out"
    header_lines = [l for l in (out / "metrics.csv").read_text().splitlines()
                    if l.startswith("#")]
    assert header_lines[-2:] == ["# emit_overlays=True", "# dump_keypoints=True"]

    raw = (out / "overlays" / "frame_00000.ppm").read_bytes()
    header = b"P6\n128 128\n255\n"
    assert raw.startswith(header)
    rgb = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(128, 128, 3)
    records = [json.loads(line) for line in
               (out / "contours.jsonl").read_text().splitlines()]
    for rec in records:
        if rec["type"] != "contour":
            continue
        for x, y in rec["points"]:
            assert tuple(rgb[y, x]) == (255, 0, 0)

    kp_lines = (out / "keypoints" / "frame_00000.txt").read_text().splitlines()
    assert len(kp_lines) == 8
    assert all(len(line.split()) == 70 for line in kp_lines)


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_run_empty_input_dir(tmp_path, capsys):
    (tmp_path / "frames").mkdir()
    cfg = full_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 1
    assert "no frames matched" in capsys.readouterr().err


def test_run_bad_parameter_value(tmp_path, capsys):
    make_frames(tmp_path)
    for key, value, message in (("alpha", -1.0, "alpha and beta must be >= 0"),
                                ("sigma", -1, "sigma must be >= 0"),
                                ("ratio", 2, "ratio must lie in (0, 1]")):
        cfg = full_config(tmp_path, **{key: value})
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: bad parameter: {message}\n"
        assert not (tmp_path / "out").exists()


def test_run_frame_sample_above_maxval(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    # maxval 100 but every sample is 200
    (frames_dir / "frame_00000.pgm").write_bytes(b"P5\n64 64\n100\n" + bytes([200] * 4096))
    cfg = full_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds maxval" in err


def test_run_featureless_frames_exit_init(tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    for i in range(2):
        netpbm.write_pgm(frames_dir / f"frame_{i:05d}.pgm", np.full((64, 64), 0.5))
    cfg = full_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "hessian_threshold" in capsys.readouterr().err


def test_run_tracking_lost_exit_code(tmp_path, monkeypatch):
    make_frames(tmp_path, frames=2)
    cfg = full_config(tmp_path)

    def lost(*args, **kwargs):
        raise TrackingLostError("gone")

    import snaketrack.cli as cli_mod
    monkeypatch.setattr(cli_mod, "track_frame", lost)
    assert main(["run", "--config", str(cfg)]) == 3


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
