"""Self-checks of the benchmark's workloads: the determinism contracts the
benchmark leans on, run through the perfbench binary at a small size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the binary on first use (see run.py) and takes under a minute.
"""

import json
import subprocess
import tempfile
import unittest

import run

SECONDS = "2"  # train: 2 epochs; datagen: 1 round of 64 samples


def run_binary(workload, seed, workdir):
    out = subprocess.run(
        [str(run.build_dir() / "perfbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "0",
         "--workdir", workdir],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["errors"] or result["failed"]:
        raise AssertionError("%s run failed its checks: %s"
                             % (workload, result["errors"]))
    return result


class SelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        run.build_dir().parent.mkdir(parents=True, exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.build_dir().parent)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def workdir(self, name):
        return "%s/%s" % (self.tmp.name, name)

    def test_thread_count_does_not_change_the_loss(self):
        one = run_binary("train", 5, self.workdir("train"))
        four = run_binary("train_mt", 5, self.workdir("train_mt"))
        self.assertEqual(one["info"]["loss_final"],
                         four["info"]["loss_final"])
        self.assertLess(one["info"]["loss_final"],
                        one["info"]["loss_first_epoch"])

    def test_same_seed_writes_identical_shards(self):
        a = run_binary("datagen", 5, self.workdir("datagen_a"))
        b = run_binary("datagen", 5, self.workdir("datagen_b"))
        c = run_binary("datagen", 6, self.workdir("datagen_c"))
        self.assertEqual(a["info"]["shard_digest"], b["info"]["shard_digest"])
        self.assertNotEqual(a["info"]["shard_digest"],
                            c["info"]["shard_digest"])


if __name__ == "__main__":
    unittest.main()
