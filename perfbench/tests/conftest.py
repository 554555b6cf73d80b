import sys
from pathlib import Path

# The benchmark's modules and the minitri sources it measures.
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
