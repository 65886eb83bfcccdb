# Fixture: *.cmake files are scanned too; -mfma and -mtune=native are both
# rejected. (Never part of the build.)
# lint-fixture: expect(no-native-arch)
string(APPEND CMAKE_CXX_FLAGS " -mfma -mtune=native")
