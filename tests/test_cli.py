import errno
import io
import runpy
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import waverep.cli
import waverep.encoder
import waverep.wavio
from waverep.autodiff import as_node
from waverep.checkpoint import load_arrays, load_model, save_arrays, save_model
from waverep.cli import build_parser, run
from waverep.dataset import SAMPLE_RATE, load_and_downmix
from waverep.decoder import (
    DecoderParameters,
    decode_chunks,
    decode_values,
    init_decoder,
    kernel_matrix,
    synthesize,
)
from waverep.encoder import (
    CHUNK_FRAMES,
    encode,
    encode_chunks,
    encode_values,
    init_encoder,
    num_frames,
)
from waverep.evaluation import mixture_and_sources, oracle_separate
from waverep.losses import LossConfig
from waverep.synth import synth_data
from waverep.training import TrainConfig
from waverep.wavio import write_wav

import report_check
from conftest import _wav_bytes, write_pcm16
from report_check import FLOAT32_GAP


@pytest.fixture(scope="module")
def stems_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("stems")
    synth_data(path, seed=5, n_tracks=2, duration=3.0)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, stems_dir):
    out = tmp_path_factory.mktemp("run")
    code = run(["train", "--stems", str(stems_dir), "--out", str(out),
                "--components", "24", "--stride", "256", "--kernel-len", "256",
                "--epochs", "2", "--batch", "4", "--seed", "3", "--lr", "1e-3"])
    assert code == 0
    return out


def _pair_with_silent_second_second(tmp_path):
    """A stems directory holding one 2 s pair whose accompaniment is zero
    for its second second: that segment's SIR is inf."""
    t = np.arange(2 * SAMPLE_RATE) / SAMPLE_RATE
    stems = tmp_path / "stems"
    stems.mkdir()
    write_wav(stems / "song_voice.wav", 0.3 * np.sin(2 * np.pi * 220 * t))
    write_wav(stems / "song_accomp.wav", np.where(t < 1.0, 0.2 * np.sin(2 * np.pi * 330 * t), 0.0))
    return stems


def _riff(*chunks) -> bytes:
    """A RIFF/WAVE file of the given (chunk id, payload) pairs, in order."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(payload)) + payload
                              for cid, payload in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


#: fmt chunks: mono PCM16, stereo PCM16, and an extensible one cut off before its SubFormat
_FMT_MONO = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16)
_FMT_STEREO = struct.pack("<HHIIHH", 1, 2, SAMPLE_RATE, 4 * SAMPLE_RATE, 4, 16)
_FMT_SHORT_EXTENSIBLE = struct.pack("<HHIIHHH", 0xFFFE, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16, 0)


@pytest.fixture
def small_checkpoint(tmp_path):
    ckpt = tmp_path / "model.bin"
    save_model(ckpt, init_encoder(8, 32, 2, 16, 2, seed=0), init_decoder(8, 32, 16))
    return ckpt


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run(["train", "--bogus"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_checkpoint_is_data_error(self, tmp_path):
        wav = tmp_path / "x.wav"
        write_wav(wav, np.zeros(100))
        assert run(["export", "--checkpoint", str(tmp_path / "no.bin"),
                    "--out", str(tmp_path / "o"), str(wav)]) == 2

    def test_wrong_rate_is_data_error(self, tmp_path, trained):
        wav = tmp_path / "wrong.wav"
        write_pcm16(wav, np.zeros((100, 1), dtype=np.int16), rate=48000)
        assert run(["export", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--out", str(tmp_path / "o"), str(wav)]) == 2

    def test_zero_block_align_stem_is_data_error(self, tmp_path):
        stems = tmp_path / "stems"
        stems.mkdir()
        (stems / "track00_voice.wav").write_bytes(_wav_bytes(1, 1, 44100, 4, b"\x00\x01"))
        write_wav(stems / "track00_accomp.wav", np.zeros(4))
        assert run(["evaluate", "--stems", str(stems), "--baseline", "stft",
                    "--out", str(tmp_path / "o")]) == 2

    def test_bad_checkpoint_stride_is_data_error(self, tmp_path):
        ckpt = tmp_path / "zero_stride.bin"
        save_model(ckpt, init_encoder(4, 8, 2, 4, 2, seed=0), init_decoder(4, 8, 4))
        arrays = load_arrays(ckpt)
        arrays["meta/stride"] = np.float64(0.0)
        save_arrays(ckpt, arrays)
        wav = tmp_path / "x.wav"
        write_wav(wav, np.ones(100))
        assert run(["reconstruct", "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "o"), str(wav)]) == 2

    def test_huge_checkpoint_stride_is_refused_when_loaded(self, tmp_path, capsys):
        # a stride of 2**35 samples sized a 128 GiB overlap-add buffer; a
        # stride longer than the kernels is now refused before any signal work
        ckpt = tmp_path / "huge_stride.bin"
        save_model(ckpt, init_encoder(4, 16, 2, 8, 2, seed=0), init_decoder(4, 16, 8))
        arrays = load_arrays(ckpt)
        arrays["meta/stride"] = np.float64(2.0**35)
        save_arrays(ckpt, arrays)
        wav = tmp_path / "x.wav"
        write_wav(wav, np.ones(100))
        out = tmp_path / "o"
        assert run(["reconstruct", "--checkpoint", str(ckpt), "--out", str(out), str(wav)]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: stride 34359738368 is longer than the kernel length 16" in err
        assert not out.exists()

    @pytest.mark.parametrize("value, code, message", [
        (1e39, 3, "the model's parameters are not finite in float32"),  # finite as stored
        (np.nan, 2, "encoder/kernels holds non-finite values"),
    ])
    def test_reconstruct_tells_a_float32_overflow_from_a_stored_nan(self, tmp_path, capsys,
                                                                    value, code, message):
        enc = init_encoder(4, 16, 2, 8, 2, seed=0)
        enc.kernels[1, 2] = value
        ckpt = tmp_path / "m.bin"
        save_model(ckpt, enc, init_decoder(4, 16, 8))
        wav = tmp_path / "x.wav"
        write_wav(wav, np.ones(100))
        out = tmp_path / "o"
        assert run(["reconstruct", "--checkpoint", str(ckpt), "--out", str(out), str(wav)]) == code
        assert f"{ckpt}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_stride_longer_than_the_kernels_is_data_error(self, stems_dir, tmp_path, capsys):
        # a model shape is refused as any other setting is, before any directory is made
        out = tmp_path / "o"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--stride", "512", "--kernel-len", "256"]) == 2
        assert ("data error: stride 512 is longer than the kernel length 256"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_failed_training_leaves_its_log_and_no_config(self, stems_dir, tmp_path, capsys):
        # run_config.txt marks a finished command: a step that overflows leaves the
        # log of the steps before it, and no configuration or checkpoint
        out = tmp_path / "o"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out), "--components", "8",
                    "--kernel-len", "32", "--stride", "16", "--lr", "1e30"]) == 3
        assert "step 2: the mixture's representation is not finite" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["train_log.jsonl"]

    def test_sinkhorn_without_iterations_is_data_error(self, stems_dir, tmp_path):
        assert run(["train", "--stems", str(stems_dir), "--out", str(tmp_path / "o"),
                    "--loss", "sinkhorn", "--sinkhorn-iters", "0"]) == 2

    def test_negative_noise_level_is_data_error(self, stems_dir, tmp_path):
        # refused with the rest of the configuration, before the log is opened
        out = tmp_path / "o"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--gaussian-std", "-1"]) == 2
        assert not (out / "train_log.jsonl").exists()
        assert not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("flags, config, setting", [
        pytest.param(["--loss", "sinkhorn", "--lambda", "nan"], None, "lam", id="lambda-nan"),
        pytest.param(["--omega", "nan"], None, "omega", id="omega-nan"),
        pytest.param(["--gaussian-std", "nan"], None, "gaussian_std", id="gaussian-std-nan"),
        pytest.param(["--loss", "sinkhorn", "--tau", "nan"], None, "tau", id="tau-nan"),
        pytest.param(["--lr", "nan"], None, "lr", id="lr-nan"),
        pytest.param(["--lr", "-1"], None, "lr", id="lr-negative"),
        pytest.param(["--seed", "-1"], None, "seed", id="seed-negative"),
        pytest.param([], "loss=bogus\n", "--loss", id="config-loss-bogus"),
    ])
    def test_bad_training_setting_is_data_error(self, stems_dir, tmp_path, capsys, flags, config,
                                                setting):
        # refused when the configuration is built, before training starts, naming the setting
        out = tmp_path / "o"
        if config is not None:
            (tmp_path / "train.cfg").write_text(config)
            flags = flags + ["--config", str(tmp_path / "train.cfg")]
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--components", "8", "--kernel-len", "32", "--epochs", "1"] + flags) == 2
        assert setting in capsys.readouterr().err
        assert not (out / "train_log.jsonl").exists()

    @pytest.mark.parametrize("command", ["grad-check", "ot-check"])
    def test_negative_check_seed_is_data_error(self, capsys, command):
        # refused by name, as synth-data and train refuse theirs, not by numpy's generator
        assert run([command, "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_zero_duration_synth_is_data_error(self, tmp_path):
        assert run(["synth-data", "--out", str(tmp_path / "o"), "--duration", "0"]) == 2

    @pytest.mark.parametrize("flags", [
        pytest.param(["--duration", "inf"], id="duration-inf"),
        pytest.param(["--duration", "nan"], id="duration-nan"),
        pytest.param(["--tracks", "0"], id="tracks-0"),
        pytest.param(["--tracks", "-2"], id="tracks-negative"),
        pytest.param(["--seed", "-1"], id="seed-negative"),
    ])
    def test_bad_synth_setting_writes_nothing(self, tmp_path, flags):
        out = tmp_path / "o"
        assert run(["synth-data", "--out", str(out)] + flags) == 2
        assert not out.exists()

    @pytest.mark.parametrize("stems, flags", [
        pytest.param("synth", ["--components", "1"], id="one-component"),
        pytest.param("synth", ["--kernel2-len", "0"], id="kernel2-len-0"),
        pytest.param("missing", [], id="missing-stems"),
        pytest.param("silent", [], id="silent-voice"),
    ])
    def test_refused_train_writes_nothing(self, stems_dir, tmp_path, monkeypatch, stems, flags):
        # the model is checked before any stem is read, the stems before any output
        path = {"synth": stems_dir, "missing": tmp_path / "none", "silent": tmp_path / "silent"}[stems]
        if stems == "silent":
            path.mkdir()
            write_wav(path / "track00_voice.wav", np.zeros(SAMPLE_RATE))
            write_wav(path / "track00_accomp.wav", np.full(SAMPLE_RATE, 0.1))
        reads = []
        monkeypatch.setattr(waverep.cli, "load_and_downmix",
                            lambda p: reads.append(p) or load_and_downmix(p))
        out = tmp_path / "o"
        assert run(["train", "--stems", str(path), "--out", str(out)] + flags) == 2
        assert not out.exists()
        if flags:
            assert reads == []

    @pytest.mark.parametrize("command", ["reconstruct", "separate", "export", "evaluate"])
    def test_missing_checkpoint_writes_nothing(self, stems_dir, tmp_path, command):
        # the checkpoint and the inputs are read before the output directory is made
        voice, accomp = (str(stems_dir / f"track00_{stem}.wav") for stem in ("voice", "accomp"))
        inputs = {"separate": [voice, accomp], "evaluate": ["--stems", str(stems_dir)]}
        out = tmp_path / "o"
        assert run([command, "--checkpoint", str(tmp_path / "nope.bin"), "--out", str(out)]
                   + inputs.get(command, [voice])) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "export", "separate", "evaluate",
                                         "train"])
    def test_empty_audio_writes_nothing(self, small_checkpoint, tmp_path, capsys, command):
        # a WAV file with no frames is refused when it is read, before any output
        stems = tmp_path / "stems"
        stems.mkdir()
        empty, accomp = stems / "track00_voice.wav", stems / "track00_accomp.wav"
        write_wav(empty, np.zeros(0))
        write_wav(accomp, np.full(SAMPLE_RATE, 0.1))
        model = ["--checkpoint", str(small_checkpoint)]
        inputs = {"separate": model + [str(empty), str(accomp)],
                  "evaluate": model + ["--stems", str(stems)],
                  "train": ["--stems", str(stems)]}
        out = tmp_path / "o"
        assert run([command, "--out", str(out)] + inputs.get(command, model + [str(empty)])) == 2
        assert f"{empty}: no samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["checkpoint", "baseline"])
    def test_evaluate_without_active_segment_writes_nothing(self, small_checkpoint, tmp_path,
                                                            capsys, source):
        stems = tmp_path / "stems"
        stems.mkdir()
        write_wav(stems / "track00_voice.wav", np.zeros(2 * SAMPLE_RATE))
        write_wav(stems / "track00_accomp.wav", np.full(2 * SAMPLE_RATE, 0.1))
        frontend = {"checkpoint": ["--checkpoint", str(small_checkpoint)],
                    "baseline": ["--baseline", "stft"]}
        out = tmp_path / "o"
        assert run(["evaluate", "--stems", str(stems), "--out", str(out)] + frontend[source]) == 2
        assert "no active voice segments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "separate", "evaluate"])
    def test_overflowing_output_writes_nothing(self, stems_dir, tmp_path, capsys, command):
        # one huge but finite kernel entry: the output overflows its scores,
        # which are computed before anything is written
        enc = init_encoder(8, 32, 2, 16, 2, seed=0)
        enc.kernels[0, 0] = 1e200
        ckpt = tmp_path / "huge.bin"
        save_model(ckpt, enc, init_decoder(8, 32, 16))
        voice, accomp = (str(stems_dir / f"track00_{stem}.wav") for stem in ("voice", "accomp"))
        inputs = {"reconstruct": [voice], "separate": [voice, accomp],
                  "evaluate": ["--stems", str(stems_dir)]}
        out = tmp_path / "o"
        assert run([command, "--checkpoint", str(ckpt), "--out", str(out)] + inputs[command]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _run_huge_model(model, command, stems_dir, tmp_path):
        """``command`` on the track00 stems with one of three overflowing
        models; returns the checkpoint, the exit code and the output path, and
        checks that no numpy warning was printed on the way."""
        enc, dec = init_encoder(8, 32, 2, 16, 2, seed=0), init_decoder(8, 32, 16)
        if model == "kernel-1e200":
            enc.kernels[0, 0] = 1e200
        elif model == "kernels-1e308":
            enc.kernels[0] = 1e308
        else:
            dec.modulator *= 1e40
        ckpt = tmp_path / "huge.bin"
        save_model(ckpt, enc, dec)
        voice, accomp = (str(stems_dir / f"track00_{stem}.wav") for stem in ("voice", "accomp"))
        inputs = {"separate": [voice, accomp], "evaluate": ["--stems", str(stems_dir)]}
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([command, "--checkpoint", str(ckpt), "--out", str(out)]
                       + inputs.get(command, [voice]))
        assert [str(w.message) for w in caught] == []
        return ckpt, code, out

    @pytest.mark.parametrize("model", ["kernel-1e200", "kernels-1e308", "modulator-1e40"])
    @pytest.mark.parametrize("command", ["reconstruct", "separate", "evaluate"])
    def test_overflow_paths_are_typed_and_silent(self, stems_dir, tmp_path, capsys, model,
                                                 command):
        # The kernels are not finite in float32, so all three commands refuse
        # the model when they cast it; modulator-1e40 is (2.5e38 at C=8, L=32),
        # but their resynthesis overflows float32.  No numpy warning is printed
        # on the way.  (The float64 library path: TestEvaluate in test_evaluation.)
        ckpt, code, out = self._run_huge_model(model, command, stems_dir, tmp_path)
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        if model == "modulator-1e40":
            assert ("track00, segment 0: the voice estimates are not finite" if command == "evaluate"
                    else "the decoded output is not finite in float32") in err
        else:
            assert f"{ckpt}: the model's parameters are not finite in float32" in err

    @pytest.mark.parametrize("model", ["kernel-1e200", "kernels-1e308", "modulator-1e40"])
    @pytest.mark.parametrize("command", ["export"])
    def test_float64_representation_overflow_is_typed_and_silent(self, stems_dir, tmp_path,
                                                                 capsys, model, command):
        # export runs the model in float64: only kernels-1e308 overflows its
        # representation, which is refused before any output
        ckpt, code, out = self._run_huge_model(model, command, stems_dir, tmp_path)
        if model != "kernels-1e308":
            assert code == 0
            return
        assert code == 3
        assert not out.exists()
        voice = stems_dir / "track00_voice.wav"
        assert (f"numerical failure: {ckpt} on {voice}: the representation is not finite"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["reconstruct", "export"])
    def test_zero_component_checkpoint_writes_nothing(self, small_checkpoint, stems_dir,
                                                      tmp_path, capsys, command):
        # a CRC-valid checkpoint whose arrays agree on C = 0: no model to decode or export with
        arrays = {name: arr[:0] if name.startswith(("encoder/", "decoder/")) else arr
                  for name, arr in load_arrays(small_checkpoint).items()}
        arrays["encoder/dilated_kernels"] = arrays["encoder/dilated_kernels"][:, :, :0]
        save_arrays(small_checkpoint, arrays)
        out = tmp_path / "o"
        assert run([command, "--checkpoint", str(small_checkpoint), "--out", str(out),
                    str(stems_dir / "track00_voice.wav")]) == 2
        assert "at least 1, got C = 0" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_wav_write_leaves_no_estimate(self, trained, stems_dir, tmp_path,
                                                 monkeypatch, capsys):
        class Full(io.FileIO):
            def write(self, data):
                if str(self.name).endswith(".wav.tmp") and self.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        monkeypatch.setattr(waverep.wavio, "open", Full, raising=False)
        out = tmp_path / "o"
        assert run(["reconstruct", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--out", str(out), str(stems_dir / "track00_voice.wav")]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list(out.iterdir()) == []  # no run_config.txt: the command did not finish

    @pytest.mark.parametrize("blob, message", [
        pytest.param(_riff((b"data", b"\0\0")), "missing fmt/data chunk", id="no-fmt"),
        pytest.param(_riff((b"fmt ", _FMT_MONO)), "missing fmt/data chunk", id="no-data"),
        pytest.param(_riff((b"fmt ", _FMT_MONO[:14]), (b"data", b"\0\0")), "fmt chunk too short",
                     id="short-fmt"),
        pytest.param(_riff((b"fmt ", _FMT_SHORT_EXTENSIBLE), (b"data", b"\0\0")),
                     "malformed extensible fmt chunk", id="short-extensible-fmt"),
        pytest.param(_riff((b"fmt ", _FMT_STEREO), (b"data", b"\0" * 6)),
                     "data chunk is not a whole number of frames", id="partial-frame"),
    ])
    def test_malformed_wav_writes_nothing(self, small_checkpoint, tmp_path, capsys, blob,
                                          message):
        wav = tmp_path / "bad.wav"
        wav.write_bytes(blob)
        out = tmp_path / "o"
        assert run(["reconstruct", "--checkpoint", str(small_checkpoint), "--out", str(out),
                    str(wav)]) == 2
        assert f"data error: {wav}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("stems, message", [
        pytest.param(["song_voice.wav"], "missing accompaniment stem for song_voice.wav",
                     id="voice-without-accomp"),
        pytest.param(["song_accomp.wav"], "no *_voice.wav stems found in {stems}", id="no-voice"),
    ])
    def test_unpaired_stems_write_nothing(self, tmp_path, capsys, command, stems, message):
        path = tmp_path / "stems"
        path.mkdir()
        for name in stems:
            write_wav(path / name, np.full(SAMPLE_RATE, 0.1))
        out = tmp_path / "o"
        frontend = ["--baseline", "stft"] if command == "evaluate" else []
        assert run([command, "--stems", str(path), "--out", str(out)] + frontend) == 2
        assert f"data error: {message.format(stems=path)}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_writes_nothing(self, stems_dir, tmp_path, capsys):
        out, config = tmp_path / "o", tmp_path / "nope.cfg"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--config", str(config)]) == 2
        assert f"data error: config file not found: {config}" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_missing_stems_writes_nothing(self, trained, tmp_path):
        out = tmp_path / "o"
        for source in (["--baseline", "stft"], ["--checkpoint", str(trained / "checkpoint.bin")]):
            assert run(["evaluate", "--stems", str(tmp_path / "none"), "--out", str(out)]
                       + source) == 2
            assert not out.exists()

    def test_evaluate_needs_exactly_one_frontend(self, stems_dir, tmp_path):
        assert run(["evaluate", "--stems", str(stems_dir), "--out", str(tmp_path / "o")]) == 1

    def test_evaluate_with_both_frontends_writes_nothing(self, small_checkpoint, stems_dir,
                                                         tmp_path, capsys):
        out = tmp_path / "o"
        assert run(["evaluate", "--stems", str(stems_dir), "--out", str(out), "--checkpoint",
                    str(small_checkpoint), "--baseline", "stft"]) == 1
        assert not out.exists()
        assert "not allowed with argument" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, usage", [
        (["evaluate"], "usage: waverep evaluate [-h] --stems STEMS --out OUT"),
        (["evaluate", "--checkpoint", "m.bin", "--baseline", "stft"],
         "usage: waverep evaluate [-h] --stems STEMS --out OUT"),
        (["evaluate", "--baseline", "stft", "--bogus"],
         "usage: waverep evaluate [-h] --stems STEMS --out OUT"),
        (["train", "--early-stop", "maybe"], "usage: waverep train [-h]"),
        (["frobnicate"], "usage: waverep [-h]"),
    ], ids=["evaluate-neither-frontend", "evaluate-both-frontends", "evaluate-unknown-flag",
            "train-switch", "unknown-command"])
    def test_usage_error_prints_the_refusing_commands_usage(self, stems_dir, tmp_path, capsys,
                                                           argv, usage):
        # the parser that refused the command line prints its usage line: not
        # the root parser's for a command
        out = tmp_path / "o"
        assert run(argv + ["--stems", str(stems_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert usage in err
        assert ("{synth-data,train," in err) == (argv[0] == "frobnicate")
        if argv[0] == "evaluate":
            assert "(--checkpoint CHECKPOINT | --baseline {stft})" in err
        assert not out.exists()


class TestCommands:
    def test_export_frame_arithmetic(self, tmp_path):
        # 1 second at stride 256 -> ceil(44100/256) = 173 frames, C=800 rows
        enc = init_encoder(800, 2048, 5, 256, 10, seed=0)
        dec = init_decoder(800, 2048, 256)
        ckpt = tmp_path / "big.bin"
        save_model(ckpt, enc, dec)
        wav = tmp_path / "one_second.wav"
        write_wav(wav, 0.2 * np.sin(2 * np.pi * 440 * np.arange(SAMPLE_RATE) / SAMPLE_RATE))
        out = tmp_path / "exp"
        assert run(["export", "--checkpoint", str(ckpt), "--out", str(out), str(wav)]) == 0
        a = np.loadtxt(out / "one_second.csv", delimiter=",", ndmin=2)
        assert a.shape == (800, 173)

    def test_train_outputs(self, trained):
        assert (trained / "checkpoint.bin").is_file()
        assert (trained / "train_log.jsonl").is_file()
        assert (trained / "run_config.txt").is_file()
        config = (trained / "run_config.txt").read_text()
        assert "command=train" in config
        assert "components=24" in config

    def test_reconstruct(self, trained, stems_dir, tmp_path):
        wav = next(stems_dir.glob("*_voice.wav"))
        out = tmp_path / "rec"
        assert run(["reconstruct", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--out", str(out), str(wav)]) == 0
        assert (out / f"{wav.stem}_recon.wav").is_file()

    def test_stale_temporary_file_is_replaced(self, trained, stems_dir, tmp_path):
        # a run killed mid-write left <name>.tmp: the next run writes it afresh
        wav = stems_dir / "track00_voice.wav"
        outs = [tmp_path / "clean", tmp_path / "stale"]
        outs[1].mkdir()
        (outs[1] / "track00_voice_recon.wav.tmp").write_bytes(b"\xff" * 10**6)
        for out in outs:
            assert run(["reconstruct", "--checkpoint", str(trained / "checkpoint.bin"),
                        "--out", str(out), str(wav)]) == 0
        assert sorted(p.name for p in outs[1].iterdir()) == ["run_config.txt",
                                                             "track00_voice_recon.wav"]
        assert ((outs[1] / "track00_voice_recon.wav").read_bytes()
                == (outs[0] / "track00_voice_recon.wav").read_bytes())

    def test_streaming_commands_print_their_scores_then_the_path(self, trained, stems_dir,
                                                                 tmp_path, capsys):
        voice = stems_dir / "track00_voice.wav"
        ckpt = str(trained / "checkpoint.bin")
        assert run(["reconstruct", "--checkpoint", ckpt, "--out", str(tmp_path / "rec"),
                    str(voice)]) == 0
        assert run(["separate", "--checkpoint", ckpt, "--out", str(tmp_path / "sep"), str(voice),
                    str(stems_dir / "track00_accomp.wav")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2] + lines[3:4]] == [
            "neg-SNR", "SI-SDR", "SI-SDR (masked separation)"]
        assert all(line.endswith(" dB") for line in lines[:2] + lines[3:4])
        assert lines[2] == f"wrote {tmp_path / 'rec' / 'track00_voice_recon.wav'}"
        assert lines[4] == f"wrote {tmp_path / 'sep' / 'track00_voice_separated.wav'}"

    def test_separate(self, trained, stems_dir, tmp_path):
        voice = next(stems_dir.glob("*_voice.wav"))
        accomp = voice.with_name(voice.name.replace("_voice", "_accomp"))
        out = tmp_path / "sep"
        assert run(["separate", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--out", str(out), str(voice), str(accomp)]) == 0
        assert (out / f"{voice.stem}_separated.wav").is_file()
        # the WAV is the oracle mask applied to the float32 model's encodings
        # of the mixture and its sources, decoded
        enc, dec = load_model(trained / "checkpoint.bin", np.float32)
        x_v, x_ac = load_and_downmix(voice), load_and_downmix(accomp)
        z = mixture_and_sources(*(encode_values(x, enc, linear=True) for x in (x_v, x_ac)))
        write_wav(tmp_path / "expected.wav", decode_values(oracle_separate(*z), dec, len(x_v)))
        assert ((out / f"{voice.stem}_separated.wav").read_bytes()
                == (tmp_path / "expected.wav").read_bytes())

    def test_evaluate_with_checkpoint(self, trained, stems_dir, tmp_path):
        out = tmp_path / "ev"
        assert run(["evaluate", "--stems", str(stems_dir),
                    "--checkpoint", str(trained / "checkpoint.bin"), "--out", str(out)]) == 0
        assert (out / "report.csv").is_file()
        assert (out / "summary.txt").is_file()

    def test_evaluate_runs_float32_within_the_report_tolerances(self, trained, stems_dir,
                                                                tmp_path, monkeypatch):
        # the command casts the model as reconstruct and separate do; its report
        # stays within report_check's bounds of the float64 library path
        ckpt = trained / "checkpoint.bin"
        dtypes = []
        real_evaluate = waverep.cli.evaluate

        def spy(tracks, enc, dec, **kwargs):
            dtypes.append({a.dtype for a in (enc.kernels, enc.dilated_kernels, dec.modulator)})
            return real_evaluate(tracks, enc, dec, **kwargs)

        monkeypatch.setattr(waverep.cli, "evaluate", spy)
        out = tmp_path / "ev"
        assert run(["evaluate", "--stems", str(stems_dir), "--checkpoint", str(ckpt),
                    "--out", str(out)]) == 0
        assert dtypes == [{np.dtype(np.float32)}]
        result = report_check.compare(ckpt, stems_dir, out)
        assert result.ok(), str(result)

    def test_evaluate_baseline(self, stems_dir, tmp_path):
        out = tmp_path / "evb"
        assert run(["evaluate", "--stems", str(stems_dir), "--baseline", "stft",
                    "--out", str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) > 1

    def test_export(self, trained, stems_dir, tmp_path):
        wav = next(stems_dir.glob("*_voice.wav"))
        out = tmp_path / "exp"
        assert run(["export", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--out", str(out), str(wav)]) == 0
        assert (out / f"{wav.stem}.csv").is_file()
        assert (out / f"{wav.stem}.pgm").is_file()

    def test_export_names_its_files_after_the_whole_stem(self, small_checkpoint, tmp_path):
        # two takes of one song exported to one directory do not overwrite each other
        ckpt, out = str(small_checkpoint), tmp_path / "exp"
        for take, period in (("a", 3.0), ("b", 4.0)):
            write_wav(tmp_path / f"song.{take}_voice.wav", 0.1 * np.sin(np.arange(4000) / period))
            assert run(["export", "--checkpoint", ckpt, "--out", str(out),
                        str(tmp_path / f"song.{take}_voice.wav")]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "run_config.txt", "song.a_voice.csv", "song.a_voice.pgm", "song.b_voice.csv",
            "song.b_voice.pgm"]

    def test_export_csv_is_the_float64_representation(self, trained, stems_dir, tmp_path):
        # each value of the CSV is the model's float64 representation of the
        # input, rounded to 10 significant digits
        ckpt, wav = trained / "checkpoint.bin", stems_dir / "track01_voice.wav"
        out = tmp_path / "exp"
        assert run(["export", "--checkpoint", str(ckpt), "--out", str(out), str(wav)]) == 0
        a = encode_values(load_and_downmix(wav), load_model(ckpt)[0])
        csv = np.loadtxt(out / "track01_voice.csv", delimiter=",", ndmin=2)
        assert csv.shape == a.shape
        np.testing.assert_allclose(csv, a, rtol=5e-10, atol=0)

    def test_encode_is_a_usage_error(self, trained, stems_dir, tmp_path, capsys):
        # export writes the representation CSV; there is no encode command
        out = tmp_path / "enc"
        assert run(["encode", "--checkpoint", str(trained / "checkpoint.bin"), "--out", str(out),
                    str(stems_dir / "track00_voice.wav")]) == 1
        assert "invalid choice: 'encode'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frontend", ["stft", "model"])
    def test_evaluate_silent_accompaniment_reports_inf_sir_without_warning(
            self, small_checkpoint, tmp_path, frontend):
        # an accompaniment that is silent for the second second gives that
        # segment SIR = inf, so the SIR column's std is nan
        stems = _pair_with_silent_second_second(tmp_path)
        source = (["--baseline", "stft"] if frontend == "stft"
                  else ["--checkpoint", str(small_checkpoint)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evaluate", "--stems", str(stems), "--out",
                        str(tmp_path / "ev")] + source) == 0
        sir = (tmp_path / "ev" / "report.csv").read_text().splitlines()[2].split(",")[-1]
        assert sir == "inf"
        summary = (tmp_path / "ev" / "summary.txt").read_text().splitlines()
        assert summary[-1] == "sir: mean=inf median=inf std=nan"

    @pytest.mark.parametrize("edit", [None, ("summary.txt", "std=nan", "std=0.0000"),
                                      ("summary.txt", "mean=inf", "mean=9.0000"),
                                      ("report.csv", ",inf\n", ",9\n")],
                             ids=["as-written", "finite-std", "finite-mean", "finite-sir"])
    def test_report_check_compares_infinite_and_nan_values(self, small_checkpoint, tmp_path,
                                                           monkeypatch, capsys, edit):
        # the SIR's inf and its std's nan match the float64 path's; a finite
        # value in their place is a gap no bound admits: exit 1, not a crash
        stems, out = _pair_with_silent_second_second(tmp_path), tmp_path / "ev"
        assert run(["evaluate", "--stems", str(stems), "--out", str(out),
                    "--checkpoint", str(small_checkpoint)]) == 0
        if edit is not None:
            name, old, new = edit
            text = (out / name).read_text()
            assert text.count(old) == 1
            (out / name).write_text(text.replace(old, new))
        monkeypatch.setattr("sys.argv", ["report_check.py", str(small_checkpoint), str(stems),
                                         str(out)])
        with pytest.raises(SystemExit) as exit_:
            runpy.run_path(report_check.__file__, run_name="__main__")
        assert exit_.value.code == (0 if edit is None else 1)
        assert "float32 evaluate: largest gaps" in capsys.readouterr().out

    def test_grad_check_passes(self):
        assert run(["grad-check"]) == 0

    def test_ot_check_passes(self):
        assert run(["ot-check"]) == 0


class TestSilentVoice:
    """An all-zero voice stem is valid input: the output is written and the
    score, which has no meaning against a silent reference, reads n/a."""

    @pytest.fixture
    def inputs(self, tmp_path, small_checkpoint):
        write_wav(tmp_path / "voice.wav", np.zeros(SAMPLE_RATE))
        write_wav(tmp_path / "accomp.wav", np.full(SAMPLE_RATE, 0.1))
        return tmp_path, small_checkpoint

    def test_reconstruct(self, inputs, capsys):
        tmp_path, ckpt = inputs
        assert run(["reconstruct", "--checkpoint", str(ckpt), "--out", str(tmp_path / "rec"),
                    str(tmp_path / "voice.wav")]) == 0
        assert (tmp_path / "rec" / "voice_recon.wav").is_file()
        out = capsys.readouterr().out
        assert "neg-SNR: n/a (silent reference)" in out
        assert "SI-SDR: n/a (silent reference)" in out

    def test_separate(self, inputs, capsys):
        tmp_path, ckpt = inputs
        assert run(["separate", "--checkpoint", str(ckpt), "--out", str(tmp_path / "sep"),
                    str(tmp_path / "voice.wav"), str(tmp_path / "accomp.wav")]) == 0
        assert (tmp_path / "sep" / "voice_separated.wav").is_file()
        assert "SI-SDR (masked separation): n/a (silent reference)" in capsys.readouterr().out


class TestStreaming:
    """``reconstruct`` and ``separate`` stream the input in blocks of
    ``CHUNK_FRAMES`` frames through ``encode_chunks`` and ``decode_chunks``.
    With float64 parameters that path matches one-shot encode/decode to
    1e-12; the commands run it with the model cast to float32, within
    ``FLOAT32_GAP`` of float64."""

    @pytest.fixture
    def inputs(self, tmp_path, rng):
        enc, dec = init_encoder(8, 64, 5, 16, 10, seed=2), init_decoder(8, 64, 16)
        ckpt = tmp_path / "model.bin"
        save_model(ckpt, enc, dec)
        n = 2 * SAMPLE_RATE + 5  # 5513 frames at stride 16: six blocks
        assert -(-n // 16) > 3 * CHUNK_FRAMES
        t = np.arange(n) / SAMPLE_RATE
        write_wav(tmp_path / "voice.wav", 0.3 * np.sin(2 * np.pi * 330 * t) * np.sin(2 * np.pi * 1.5 * t))
        write_wav(tmp_path / "accomp.wav", 0.2 * rng.uniform(-1, 1, n))
        return tmp_path, ckpt

    @staticmethod
    def _written(monkeypatch):
        written = []

        def capture(path, samples, *args, **kwargs):
            written.append(np.array(samples))
            return write_wav(path, samples, *args, **kwargs)

        monkeypatch.setattr(waverep.cli, "write_wav", capture)
        return written

    @staticmethod
    def _one_shot(z, dec, n):
        return synthesize(as_node(z), as_node(kernel_matrix(dec)), dec.stride, n).value

    @staticmethod
    def _gap(got, ref):
        assert got.shape == ref.shape
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    @staticmethod
    def _streamed(command, x_v, x_ac, enc, dec):
        """The block pipeline of ``command``: ``reconstruct`` decodes the voice's
        blocks, ``separate`` their oracle-masked mixture with the accompaniment."""
        if command == "reconstruct":
            return decode_chunks(encode_chunks(x_v, enc), dec, len(x_v))
        blocks = zip(*(encode_chunks(x, enc, linear=True) for x in (x_v, x_ac)))
        return decode_chunks((oracle_separate(*mixture_and_sources(*pair)) for pair in blocks),
                             dec, len(x_v))

    @staticmethod
    def _signals(tmp_path):
        return load_and_downmix(tmp_path / "voice.wav"), load_and_downmix(tmp_path / "accomp.wav")

    def test_reconstruct(self, inputs):
        tmp_path, ckpt = inputs
        enc, dec = load_model(ckpt)
        x, x_ac = self._signals(tmp_path)
        ref = self._one_shot(encode(x, enc).value, dec, len(x))
        assert self._gap(self._streamed("reconstruct", x, x_ac, enc, dec), ref) <= 1e-12

    def test_separate(self, inputs):
        tmp_path, ckpt = inputs
        enc, dec = load_model(ckpt)
        x_v, x_ac = self._signals(tmp_path)
        z = [encode(x, enc).value for x in (x_v + x_ac, x_v, x_ac)]
        ref = self._one_shot(oracle_separate(*z), dec, len(x_v))
        assert self._gap(self._streamed("separate", x_v, x_ac, enc, dec), ref) <= 1e-12

    @pytest.mark.parametrize("command", ["reconstruct", "separate"])
    def test_command_runs_float32_within_the_gap(self, inputs, monkeypatch, command):
        tmp_path, ckpt = inputs
        written = self._written(monkeypatch)
        wavs = [str(tmp_path / "voice.wav"), str(tmp_path / "accomp.wav")]
        assert run([command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")]
                   + wavs[: 1 + (command == "separate")]) == 0
        assert written[0].dtype == np.float32
        enc, dec = load_model(ckpt)
        ref = self._streamed(command, *self._signals(tmp_path), enc, dec)
        assert 0.0 < self._gap(written[0], ref) <= FLOAT32_GAP

    def test_float32_representations_and_masks(self, inputs):
        tmp_path, ckpt = inputs
        (enc64, _), (enc32, _) = load_model(ckpt), load_model(ckpt, np.float32)
        x_v, x_ac = self._signals(tmp_path)
        z64, z32 = (mixture_and_sources(*(encode_values(x, enc, linear=True) for x in (x_v, x_ac)))
                    for enc in (enc64, enc32))
        for got, ref in zip(z32, z64):
            assert self._gap(got, ref) <= FLOAT32_GAP
        # reconstruct's gap and the mask flips, through the check that CI runs
        voice, accomp = tmp_path / "voice.wav", tmp_path / "accomp.wav"
        assert run(["reconstruct", "--checkpoint", str(ckpt), "--out", str(tmp_path / "rec"),
                    str(voice)]) == 0
        result = report_check.compare_streaming(ckpt, voice, accomp,
                                                tmp_path / "rec" / "voice_recon.wav")
        assert result.ok(), str(result)
        assert result.cells == z64[1].size

    def test_commands_repeat_bit_for_bit(self, inputs):
        tmp_path, ckpt = inputs
        voice, accomp = str(tmp_path / "voice.wav"), str(tmp_path / "accomp.wav")
        for out in ("a", "b"):
            assert run(["reconstruct", "--checkpoint", str(ckpt), "--out", str(tmp_path / out),
                        voice]) == 0
            assert run(["separate", "--checkpoint", str(ckpt), "--out", str(tmp_path / out),
                        voice, accomp]) == 0
        for name in ("voice_recon.wav", "voice_separated.wav"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_separate_encodes_two_signals_per_block(self, inputs, monkeypatch):
        # the mixture is masked from its sources' pre-activations, so each block
        # encodes the voice and the accompaniment, not the mixture as a third
        tmp_path, ckpt = inputs
        linear = []
        real_encode = waverep.encoder.encode

        def counting_encode(x, *args, **kwargs):
            linear.append(kwargs.get("linear"))
            return real_encode(x, *args, **kwargs)

        monkeypatch.setattr(waverep.encoder, "encode", counting_encode)
        assert run(["separate", "--checkpoint", str(ckpt), "--out", str(tmp_path / "sep"),
                    str(tmp_path / "voice.wav"), str(tmp_path / "accomp.wav")]) == 0
        n = load_and_downmix(tmp_path / "voice.wav").size
        blocks = -(-num_frames(n, 16) // CHUNK_FRAMES)
        assert blocks == 6
        assert linear == [True] * (2 * blocks)


def test_separate_memory_is_bounded_in_duration(tmp_path, rng):
    """Doubling the input adds a few signal-sized arrays to the peak of
    ``separate``, not (C, T) representations: C=64 at stride 4 makes each
    representation 16x the signal's size, and one-shot separation holds
    several of them (~100x the added signal bytes)."""
    ckpt = tmp_path / "model.bin"
    save_model(ckpt, init_encoder(64, 64, 5, 4, 10, seed=0), init_decoder(64, 64, 4))
    peaks = {}
    for seconds in (2, 4):
        n = seconds * SAMPLE_RATE
        write_wav(tmp_path / f"v{seconds}.wav", 0.3 * np.sin(2 * np.pi * 220 * np.arange(n) / SAMPLE_RATE))
        write_wav(tmp_path / f"a{seconds}.wav", 0.2 * rng.uniform(-1, 1, n))
        tracemalloc.start()
        try:
            assert run(["separate", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o"),
                        str(tmp_path / f"v{seconds}.wav"), str(tmp_path / f"a{seconds}.wav")]) == 0
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    added_signal_bytes = 2 * SAMPLE_RATE * 8
    assert peaks[4] - peaks[2] <= 8 * added_signal_bytes, (peaks[4] - peaks[2]) / added_signal_bytes


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, stems_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("components=16\nkernel-len=256\nepochs=1\nbatch=2\n"
                       "lr=1e-3\nseed=9\nsquare-freq=off\n")
        out = tmp_path / "out"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--config", str(cfg), "--components", "12"]) == 0
        text = (out / "run_config.txt").read_text()
        assert "components=12" in text       # flag wins
        assert "kernel_len=256" in text      # config value applied
        assert "epochs=1" in text
        assert "square_freq=False" in text

    def test_abbreviated_flag_is_usage_error(self, stems_dir, tmp_path):
        # argparse would expand --lam/--epoch, but an abbreviation can change
        # meaning when a flag is added, so abbreviations are refused
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=0.5\nepochs=1\n")
        out = tmp_path / "out"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--config", str(cfg), "--lam", "0.3", "--epoch", "3"]) == 1
        assert not out.exists()

    def test_unknown_config_key_is_data_error(self, stems_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp-speed=9\n")
        assert run(["train", "--stems", str(stems_dir), "--out", str(tmp_path / "o"),
                    "--config", str(cfg)]) == 2

    def test_non_utf8_config_names_the_file(self, stems_dir, tmp_path, capsys):
        # 0xe9 is latin-1 "e acute" but no UTF-8 sequence, whatever the locale
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9 sweep\nepochs=1\n")
        out = tmp_path / "o"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--config", str(cfg)]) == 2
        assert f"{cfg}: not a UTF-8 text file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, lam", [([], "0.1"), (["--lambda", "0.3"], "0.3")],
                             ids=["file", "flag-wins"])
    def test_lambda_and_underscore_keys(self, stems_dir, tmp_path, flags, lam):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=0.1\nkernel_len=256\ncomponents=8\nepochs=1\n")
        out = tmp_path / "out"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--config", str(cfg)] + flags) == 0
        text = (out / "run_config.txt").read_text()
        assert f"lam={lam}\n" in text
        assert "kernel_len=256\n" in text

    @pytest.mark.parametrize("line", ["p=3", "square-freq=maybe", "epochs=two", "early-stop=yes",
                                      "early-stop=maybe", "early-stop="])
    def test_bad_config_value_names_file_and_line(self, stems_dir, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# sweep point\n{line}\n")
        out = tmp_path / "o"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--config", str(cfg)]) == 2
        assert f"{cfg}:2: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, early_stop", [("on", True), ("off", False)])
    def test_switch_reads_on_or_off(self, stems_dir, tmp_path, value, early_stop):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"components=8\nkernel-len=256\nepochs=1\nearly_stop={value}\n")
        out = tmp_path / "out"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--config", str(cfg)]) == 0
        assert f"early_stop={early_stop}\n" in (out / "run_config.txt").read_text()

    @pytest.mark.parametrize("in_file, flag, early_stop", [("off", "on", True), ("on", "off", False)])
    def test_switch_flag_overrides_file(self, stems_dir, tmp_path, in_file, flag, early_stop):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"components=8\nkernel-len=256\nepochs=1\nearly-stop={in_file}\n")
        out = tmp_path / "out"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out),
                    "--config", str(cfg), "--early-stop", flag]) == 0
        assert f"early_stop={early_stop}\n" in (out / "run_config.txt").read_text()

    def test_negative_switch_flag_is_usage_error(self, stems_dir, tmp_path):
        out = tmp_path / "out"
        assert run(["train", "--stems", str(stems_dir), "--out", str(out), "--no-early-stop"]) == 1
        assert not out.exists()

    def test_config_run_matches_flag_run(self, stems_dir, tmp_path):
        settings = {"components": "8", "kernel-len": "256", "epochs": "1", "batch": "3",
                    "loss": "sinkhorn", "lambda": "0.3", "seed": "4", "early-stop": "off"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        flags = [t for k, v in settings.items() for t in (f"--{k}", v)]
        for name, extra in (("flags", flags), ("config", ["--config", str(cfg)])):
            assert run(["train", "--stems", str(stems_dir), "--out", str(tmp_path / name)]
                       + extra) == 0
        for artifact in ("checkpoint.bin", "train_log.jsonl"):
            assert ((tmp_path / "flags" / artifact).read_bytes()
                    == (tmp_path / "config" / artifact).read_bytes())

    def test_train_defaults_are_the_config_defaults(self, monkeypatch, capsys):
        args = build_parser().parse_args(["train", "--stems", "s", "--out", "o"])
        train, loss = TrainConfig(), LossConfig()
        assert (args.epochs, args.batch, args.seed, args.lr, args.gaussian_std, args.loss,
                args.early_stop) == (train.epochs, train.batch_size, train.seed,
                                     train.lr, train.gaussian_std, train.variant,
                                     train.early_stop)
        assert (args.omega, args.lam, args.p, args.sinkhorn_iters, args.tau) == (
            loss.omega, loss.lam, loss.p, loss.max_iters, loss.tau)
        # --square-freq, its help and init_decoder read DecoderParameters.square_freq
        assert args.square_freq is DecoderParameters.square_freq
        assert init_decoder(4, 8, 4).square_freq is DecoderParameters.square_freq
        for default, name in ((True, "on"), (False, "off")):
            monkeypatch.setattr(DecoderParameters, "square_freq", default)
            args = build_parser().parse_args(["train", "--stems", "s", "--out", "o"])
            assert args.square_freq is default
            assert run(["train", "--help"]) == 0
            assert f"(default {name})" in " ".join(capsys.readouterr().out.split())


class TestDeterminism:
    def test_synth_data_reproducible(self, tmp_path):
        for name in ("a", "b"):
            assert run(["synth-data", "--out", str(tmp_path / name), "--seed", "7",
                        "--tracks", "1", "--duration", "1"]) == 0
        va = (tmp_path / "a" / "track00_voice.wav").read_bytes()
        vb = (tmp_path / "b" / "track00_voice.wav").read_bytes()
        assert va == vb
