import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
# the benchmark's modules import each other as top-level modules; the
# in-process tests import the program from the checkout's src/
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
