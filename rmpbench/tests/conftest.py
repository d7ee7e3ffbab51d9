import sys

from rmpbench import SRC

# The benchmark measures this checkout's source, never an installed rmplab.
sys.path.insert(0, str(SRC))
