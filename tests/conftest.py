import warnings

# After a failing @given test, hypothesis's pytest plugin imports its patch
# writer, hypothesis.extra._patching, which imports libcst where that is
# installed; libcst warns DeprecationWarning on import, and under -W error
# that warning turns the falsifying example into a pytest INTERNALERROR.
# Importing the module once here, with that warning ignored, makes the later
# import a cache hit.  Without libcst the plugin skips the patch writer.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
